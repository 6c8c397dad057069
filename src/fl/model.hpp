// Sequential model container + the paper's architectures.
//
// paper_cnn() reproduces Fig. 5: two blocks of (conv3x3, conv3x3,
// maxpool, dropout) with ReLU activations, then dense+ReLU+dropout and a
// dense output (softmax applied inside the loss). With CIFAR-10 input
// (3x32x32) and the default dense width the model lands at ~1.25M
// parameters, the size the paper's cost analysis assumes. mlp() is the
// scaled-down substitute used by the default (CI-speed) accuracy runs.
//
// A model keeps every parameter in one flat buffer and every gradient in
// another, in layer order; each layer's params() / grads() views its
// slice of them. The builders bind the store once; add() lays it out
// again. Moving a model moves the buffers, so the views stay valid.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "fl/layers.hpp"

namespace p2pfl::fl {

class Model {
 public:
  Model() = default;
  /// The layers in order, bound to one store.
  explicit Model(std::vector<std::unique_ptr<Layer>> layers);
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  /// Appends a layer and binds the store again, copying every value.
  void add(std::unique_ptr<Layer> layer);

  /// Randomly initialize every layer's parameters.
  void init(Rng& rng);

  Tensor forward(const Tensor& x, bool train, Rng& rng);

  /// Backpropagate loss gradient through the layers (after a forward),
  /// accumulating every parameter gradient.
  void backward(const Tensor& grad);

  /// Frees every layer's activations (Layer::free_activations).
  void free_activations();

  /// The store: every layer's parameters / gradients, in layer order.
  std::span<float> params() { return params_; }
  std::span<const float> params() const { return params_; }
  std::span<float> grads() { return grads_; }

  std::size_t param_count() const { return params_.size(); }
  std::vector<float> get_params() const;
  void set_params(std::span<const float> flat);
  std::vector<float> get_grads() const;
  void zero_grads();

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }

  /// Fig. 5 CNN. `channels`/`hw` describe the square input image.
  static Model paper_cnn(std::size_t channels, std::size_t hw,
                         std::size_t dense_width = 287,
                         std::size_t classes = 10);

  /// Small MLP on flattened input (fast substitute for default runs).
  static Model mlp(std::size_t inputs, const std::vector<std::size_t>& hidden,
                   std::size_t classes = 10, float dropout = 0.0f);

 private:
  /// Lays out the store for the current layers and points them at it.
  void bind();

  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<float, DefaultInitAllocator<float>> params_, grads_;
};

}  // namespace p2pfl::fl
