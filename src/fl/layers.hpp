// Neural-network layers for the Fig. 5 CNN and the MLP substitute.
//
// Each layer owns its parameters and gradient buffers and implements
// forward (caching what backward needs) and backward (returning the
// input gradient and accumulating parameter gradients). Layers are
// stateful per model instance — one model per peer, as in the paper.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fl/tensor.hpp"

namespace p2pfl::fl {

class Layer {
 public:
  virtual ~Layer() = default;

  virtual std::string name() const = 0;

  /// `train` enables stochastic behaviour (dropout).
  virtual Tensor forward(const Tensor& x, bool train, Rng& rng) = 0;

  /// Accumulates parameter grads and returns the gradient w.r.t. this
  /// layer's input. With `input_grad` false nothing reads that gradient:
  /// a layer may skip it and return an empty tensor.
  virtual Tensor backward(const Tensor& grad_out, bool input_grad = true) = 0;

  /// Flat views of parameters / their gradients (empty if stateless).
  virtual std::span<float> params() { return {}; }
  virtual std::span<float> grads() { return {}; }

  virtual void init(Rng& rng) { (void)rng; }
  void zero_grads() {
    auto g = grads();
    std::fill(g.begin(), g.end(), 0.0f);
  }
};

/// Fully connected: (B, in) -> (B, out). He-uniform initialization.
/// Forward runs in parallel over samples: per chunk, the inputs are
/// copied samples-innermost, and each output's double chain over the
/// inputs runs across the chunk's samples at once. Backward adds the
/// weight and bias gradients one output at a time, and the input gradient
/// in parallel over samples. Every output element gets exactly the direct
/// loop's arithmetic (the same float products, summed in the same order,
/// in double for forward and float for backward), so results are
/// bit-identical to the direct loops at any worker count and vector level.
class Dense : public Layer {
 public:
  Dense(std::size_t in, std::size_t out);
  std::string name() const override { return "dense"; }
  Tensor forward(const Tensor& x, bool train, Rng& rng) override;
  Tensor backward(const Tensor& grad_out, bool input_grad = true) override;
  std::span<float> params() override { return params_; }
  std::span<float> grads() override { return grads_; }
  void init(Rng& rng) override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

 private:
  std::size_t in_, out_;
  std::vector<float> params_;  // weights (out*in) then bias (out)
  std::vector<float> grads_;
  Tensor cached_input_;
};

/// Element-wise rectifier.
class ReLU : public Layer {
 public:
  std::string name() const override { return "relu"; }
  Tensor forward(const Tensor& x, bool train, Rng& rng) override;
  Tensor backward(const Tensor& grad_out, bool input_grad = true) override;

 private:
  Tensor cached_input_;
};

/// Inverted dropout: activations are scaled by 1/(1-rate) at train time
/// so inference needs no rescaling.
class Dropout : public Layer {
 public:
  explicit Dropout(float rate);
  std::string name() const override { return "dropout"; }
  Tensor forward(const Tensor& x, bool train, Rng& rng) override;
  Tensor backward(const Tensor& grad_out, bool input_grad = true) override;

 private:
  float rate_;
  std::vector<float> mask_;
};

/// 3x3 (configurable) same-padding convolution: (B, C, H, W) ->
/// (B, F, H, W). Forward runs in parallel over images: per filter, a
/// plane of double accumulators gathers the taps over the zero-padded
/// image. Backward runs two passes: the input gradient in parallel over
/// images and the weight and bias gradients in parallel over filters,
/// both over channel-last copies. Every output element gets exactly the
/// direct loop's arithmetic (the same float products, summed in the same
/// order, in double for forward and float for backward), so results are
/// bit-identical to the direct loops at any worker count and vector level.
class Conv2d : public Layer {
 public:
  Conv2d(std::size_t in_channels, std::size_t filters,
         std::size_t kernel = 3);
  std::string name() const override { return "conv2d"; }
  Tensor forward(const Tensor& x, bool train, Rng& rng) override;
  Tensor backward(const Tensor& grad_out, bool input_grad = true) override;
  std::span<float> params() override { return params_; }
  std::span<float> grads() override { return grads_; }
  void init(Rng& rng) override;

 private:
  std::size_t in_c_, filters_, k_;
  std::vector<float> params_;  // weights (F*C*k*k) then bias (F)
  std::vector<float> grads_;
  Tensor cached_input_;
};

/// 2x2 stride-2 max pooling: (B, C, H, W) -> (B, C, H/2, W/2).
class MaxPool2d : public Layer {
 public:
  std::string name() const override { return "maxpool2d"; }
  Tensor forward(const Tensor& x, bool train, Rng& rng) override;
  Tensor backward(const Tensor& grad_out, bool input_grad = true) override;

 private:
  std::vector<std::size_t> argmax_;
  std::vector<std::size_t> in_shape_;
};

/// (B, ...) -> (B, prod(...)).
class Flatten : public Layer {
 public:
  std::string name() const override { return "flatten"; }
  Tensor forward(const Tensor& x, bool train, Rng& rng) override;
  Tensor backward(const Tensor& grad_out, bool input_grad = true) override;

 private:
  std::vector<std::size_t> in_shape_;
};

}  // namespace p2pfl::fl
