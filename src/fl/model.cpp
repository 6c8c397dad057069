#include "fl/model.hpp"

#include "common/check.hpp"

namespace p2pfl::fl {

void Model::add(std::unique_ptr<Layer> layer) {
  P2PFL_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
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

std::size_t Model::param_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l->params().size();
  return n;
}

std::vector<float> Model::get_params() const {
  std::vector<float> flat;
  flat.reserve(param_count());
  for (const auto& l : layers_) {
    const auto p = l->params();
    flat.insert(flat.end(), p.begin(), p.end());
  }
  return flat;
}

void Model::set_params(std::span<const float> flat) {
  P2PFL_CHECK(flat.size() == param_count());
  std::size_t off = 0;
  for (auto& l : layers_) {
    auto p = l->params();
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(off),
              flat.begin() + static_cast<std::ptrdiff_t>(off + p.size()),
              p.begin());
    off += p.size();
  }
}

std::vector<float> Model::get_grads() const {
  std::vector<float> flat;
  flat.reserve(param_count());
  for (const auto& l : layers_) {
    const auto g = l->grads();
    flat.insert(flat.end(), g.begin(), g.end());
  }
  return flat;
}

void Model::zero_grads() {
  for (auto& l : layers_) l->zero_grads();
}

Model Model::paper_cnn(std::size_t channels, std::size_t hw,
                       std::size_t dense_width, std::size_t classes) {
  P2PFL_CHECK(hw % 4 == 0);  // two 2x2 pools
  Model m;
  m.add(std::make_unique<Conv2d>(channels, 32));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<Conv2d>(32, 32));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<MaxPool2d>());
  m.add(std::make_unique<Dropout>(0.25f));
  m.add(std::make_unique<Conv2d>(32, 64));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<Conv2d>(64, 64));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<MaxPool2d>());
  m.add(std::make_unique<Dropout>(0.25f));
  m.add(std::make_unique<Flatten>());
  const std::size_t flat = 64 * (hw / 4) * (hw / 4);
  m.add(std::make_unique<Dense>(flat, dense_width));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<Dropout>(0.5f));
  m.add(std::make_unique<Dense>(dense_width, classes));
  return m;
}

Model Model::mlp(std::size_t inputs, const std::vector<std::size_t>& hidden,
                 std::size_t classes, float dropout) {
  Model m;
  m.add(std::make_unique<Flatten>());
  std::size_t prev = inputs;
  for (std::size_t width : hidden) {
    m.add(std::make_unique<Dense>(prev, width));
    m.add(std::make_unique<ReLU>());
    if (dropout > 0.0f) m.add(std::make_unique<Dropout>(dropout));
    prev = width;
  }
  m.add(std::make_unique<Dense>(prev, classes));
  return m;
}

}  // namespace p2pfl::fl
