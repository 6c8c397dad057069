#include "fl/trainer.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace p2pfl::fl {

PeerTrainer::PeerTrainer(Model model, std::unique_ptr<Adam> optimizer,
                         const Dataset& data,
                         std::vector<std::size_t> indices, Rng rng)
    : model_(std::move(model)),
      optimizer_(std::move(optimizer)),
      data_(data),
      indices_(std::move(indices)),
      rng_(rng) {
  P2PFL_CHECK(optimizer_ != nullptr);
  P2PFL_CHECK(!indices_.empty());
}

double PeerTrainer::train_round(const TrainOptions& opts) {
  P2PFL_CHECK(opts.epochs >= 1 && opts.batch_size >= 1);
  double total_loss = 0.0;
  std::size_t batches = 0;
  for (std::size_t epoch = 0; epoch < opts.epochs; ++epoch) {
    rng_.shuffle(indices_);
    for (std::size_t off = 0; off < indices_.size();
         off += opts.batch_size) {
      const std::size_t count =
          std::min(opts.batch_size, indices_.size() - off);
      const std::span<const std::size_t> idx(indices_.data() + off, count);
      const Tensor x = data_.batch(idx);
      std::vector<int> labels(count);
      for (std::size_t i = 0; i < count; ++i) {
        labels[i] = data_.labels[idx[i]];
      }
      model_.zero_grads();
      const Tensor logits = model_.forward(x, /*train=*/true, rng_);
      LossResult lr = softmax_cross_entropy(logits, labels);
      model_.backward(lr.grad);
      optimizer_->step(model_.params(), model_.grads());
      total_loss += lr.loss;
      ++batches;
    }
  }
  model_.free_activations();
  return batches > 0 ? total_loss / static_cast<double>(batches) : 0.0;
}

EvalResult PeerTrainer::evaluate(const Dataset& test,
                                 std::size_t max_samples) {
  return evaluate_model(model_, test, rng_, max_samples);
}

EvalResult evaluate_model(Model& model, const Dataset& test, Rng& rng,
                          std::size_t max_samples, std::size_t batch_size) {
  P2PFL_CHECK(test.size() > 0);
  P2PFL_CHECK(batch_size >= 1);
  const std::size_t total =
      max_samples > 0 ? std::min(max_samples, test.size()) : test.size();
  double loss = 0.0;
  std::size_t correct = 0;
  for (std::size_t off = 0; off < total; off += batch_size) {
    const std::size_t count = std::min(batch_size, total - off);
    std::vector<std::size_t> idx(count);
    for (std::size_t i = 0; i < count; ++i) idx[i] = off + i;
    const Tensor x = test.batch(idx);
    std::vector<int> labels(count);
    for (std::size_t i = 0; i < count; ++i) labels[i] = test.labels[off + i];
    const Tensor logits = model.forward(x, /*train=*/false, rng);
    const LossResult lr = softmax_cross_entropy(logits, labels);
    loss += lr.loss * static_cast<double>(count);
    correct += lr.correct;
  }
  model.free_activations();
  EvalResult out;
  out.loss = loss / static_cast<double>(total);
  out.accuracy = static_cast<double>(correct) / static_cast<double>(total);
  return out;
}

}  // namespace p2pfl::fl
