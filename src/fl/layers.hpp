// Neural-network layers for the Fig. 5 CNN and the MLP substitute.
//
// Each layer implements forward (in training mode, caching what backward
// needs, its activations; an evaluation forward keeps none) and backward
// (returning the input gradient and accumulating parameter gradients). Its parameters and their gradients
// are views: into its model's flat store (model.hpp) once the model binds
// it, into a buffer of its own until then. Layers are stateful per model
// instance — one model per peer, as in the paper.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fl/tensor.hpp"

namespace p2pfl::fl {

class Layer {
 public:
  virtual ~Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  virtual std::string name() const = 0;

  /// `train` enables stochastic behaviour (dropout) and keeps the
  /// activations backward needs; with `train` false a layer keeps none,
  /// and a backward that needs them fails its check.
  virtual Tensor forward(const Tensor& x, bool train, Rng& rng) = 0;

  /// Accumulates parameter grads and returns the gradient w.r.t. this
  /// layer's input. With `input_grad` false nothing reads that gradient:
  /// a layer may skip it and return an empty tensor.
  virtual Tensor backward(const Tensor& grad_out, bool input_grad = true) = 0;

  /// Flat views of parameters / their gradients (empty if stateless).
  std::span<float> params() { return params_; }
  std::span<float> grads() { return grads_; }

  /// Points params() and grads() at `params` and `grads`, of the same
  /// sizes, carrying their values over, and frees the layer's own buffer.
  void bind(std::span<float> params, std::span<float> grads);

  virtual void init(Rng& rng) { (void)rng; }
  void zero_grads() { std::fill(grads_.begin(), grads_.end(), 0.0f); }

  /// Bytes held from the last forward for backward (the activations).
  virtual std::size_t activation_bytes() const { return 0; }
  /// Frees the activations; the next backward needs a forward first.
  virtual void free_activations() {}

 protected:
  /// `param_count` parameters and as many gradients, zeroed, in a buffer
  /// of the layer's own.
  explicit Layer(std::size_t param_count = 0);

 private:
  std::vector<float> own_;  // params then grads, until bound
  std::span<float> params_, grads_;
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
  void init(Rng& rng) override;  // params: weights (out*in) then bias (out)
  std::size_t activation_bytes() const override;
  void free_activations() override;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

 private:
  std::size_t in_, out_;
  Tensor cached_input_;
};

/// Element-wise rectifier.
class ReLU : public Layer {
 public:
  std::string name() const override { return "relu"; }
  Tensor forward(const Tensor& x, bool train, Rng& rng) override;
  Tensor backward(const Tensor& grad_out, bool input_grad = true) override;
  std::size_t activation_bytes() const override;
  void free_activations() override;

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
  std::size_t activation_bytes() const override;
  void free_activations() override;

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
  void init(Rng& rng) override;  // params: weights (F*C*k*k) then bias (F)
  std::size_t activation_bytes() const override;
  void free_activations() override;

 private:
  std::size_t in_c_, filters_, k_;
  Tensor cached_input_;
};

/// 2x2 stride-2 max pooling: (B, C, H, W) -> (B, C, H/2, W/2).
class MaxPool2d : public Layer {
 public:
  std::string name() const override { return "maxpool2d"; }
  Tensor forward(const Tensor& x, bool train, Rng& rng) override;
  Tensor backward(const Tensor& grad_out, bool input_grad = true) override;
  std::size_t activation_bytes() const override;
  void free_activations() override;

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
