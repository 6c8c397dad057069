#include "fl/model.hpp"

#include "common/check.hpp"

namespace p2pfl::fl {

Model::Model(std::vector<std::unique_ptr<Layer>> layers)
    : layers_(std::move(layers)) {
  for (const auto& l : layers_) P2PFL_CHECK(l != nullptr);
  bind();
}

void Model::add(std::unique_ptr<Layer> layer) {
  P2PFL_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  bind();
}

void Model::bind() {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l->params().size();
  // Every element is written below, from the layer's current values.
  decltype(params_) params, grads;
  params.resize(n);
  grads.resize(n);
  std::size_t off = 0;
  for (auto& l : layers_) {
    const std::size_t count = l->params().size();
    l->bind(std::span(params).subspan(off, count),
            std::span(grads).subspan(off, count));
    off += count;
  }
  // Moving a vector keeps its buffer, so the views stay valid.
  params_ = std::move(params);
  grads_ = std::move(grads);
}

void Model::init(Rng& rng) {
  for (auto& l : layers_) l->init(rng);
}

Tensor Model::forward(const Tensor& x, bool train, Rng& rng) {
  Tensor t = x;
  for (auto& l : layers_) t = l->forward(t, train, rng);
  return t;
}

void Model::backward(const Tensor& grad) {
  // Nothing reads the gradient below the lowest layer with parameters:
  // that layer computes its parameter gradients only, and the layers
  // under it do not run.
  std::size_t lowest = 0;
  while (lowest < layers_.size() && layers_[lowest]->params().empty()) {
    ++lowest;
  }
  Tensor g = grad;
  for (std::size_t i = layers_.size(); i-- > lowest;) {
    g = layers_[i]->backward(g, /*input_grad=*/i > lowest);
  }
}

void Model::free_activations() {
  for (auto& l : layers_) l->free_activations();
}

std::vector<float> Model::get_params() const {
  return {params_.begin(), params_.end()};
}

void Model::set_params(std::span<const float> flat) {
  P2PFL_CHECK(flat.size() == params_.size());
  std::copy(flat.begin(), flat.end(), params_.begin());
}

std::vector<float> Model::get_grads() const {
  return {grads_.begin(), grads_.end()};
}

void Model::zero_grads() { std::fill(grads_.begin(), grads_.end(), 0.0f); }

Model Model::paper_cnn(std::size_t channels, std::size_t hw,
                       std::size_t dense_width, std::size_t classes) {
  P2PFL_CHECK(hw % 4 == 0);  // two 2x2 pools
  std::vector<std::unique_ptr<Layer>> l;
  l.push_back(std::make_unique<Conv2d>(channels, 32));
  l.push_back(std::make_unique<ReLU>());
  l.push_back(std::make_unique<Conv2d>(32, 32));
  l.push_back(std::make_unique<ReLU>());
  l.push_back(std::make_unique<MaxPool2d>());
  l.push_back(std::make_unique<Dropout>(0.25f));
  l.push_back(std::make_unique<Conv2d>(32, 64));
  l.push_back(std::make_unique<ReLU>());
  l.push_back(std::make_unique<Conv2d>(64, 64));
  l.push_back(std::make_unique<ReLU>());
  l.push_back(std::make_unique<MaxPool2d>());
  l.push_back(std::make_unique<Dropout>(0.25f));
  l.push_back(std::make_unique<Flatten>());
  const std::size_t flat = 64 * (hw / 4) * (hw / 4);
  l.push_back(std::make_unique<Dense>(flat, dense_width));
  l.push_back(std::make_unique<ReLU>());
  l.push_back(std::make_unique<Dropout>(0.5f));
  l.push_back(std::make_unique<Dense>(dense_width, classes));
  return Model(std::move(l));
}

Model Model::mlp(std::size_t inputs, const std::vector<std::size_t>& hidden,
                 std::size_t classes, float dropout) {
  std::vector<std::unique_ptr<Layer>> l;
  l.push_back(std::make_unique<Flatten>());
  std::size_t prev = inputs;
  for (std::size_t width : hidden) {
    l.push_back(std::make_unique<Dense>(prev, width));
    l.push_back(std::make_unique<ReLU>());
    if (dropout > 0.0f) l.push_back(std::make_unique<Dropout>(dropout));
    prev = width;
  }
  l.push_back(std::make_unique<Dense>(prev, classes));
  return Model(std::move(l));
}

}  // namespace p2pfl::fl
