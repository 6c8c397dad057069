// Per-peer local training (the "local update" step of each FL round).
//
// Matches the paper's §VI-A1 setup: Adam (lr 1e-4), categorical
// cross-entropy, 1 epoch per round, batch size 50. A PeerTrainer owns a
// peer's model instance, optimizer state (persisting across rounds, as a
// long-lived client process would) and its slice of the training data.
#pragma once

#include <memory>
#include <vector>

#include "fl/data.hpp"
#include "fl/loss.hpp"
#include "fl/model.hpp"
#include "fl/optimizer.hpp"

namespace p2pfl::fl {

struct TrainOptions {
  std::size_t epochs = 1;
  std::size_t batch_size = 50;
};

struct EvalResult {
  double loss = 0.0;
  double accuracy = 0.0;  // in [0, 1]
};

class PeerTrainer {
 public:
  /// `indices` selects this peer's local samples within `data` (which
  /// must outlive the trainer).
  PeerTrainer(Model model, std::unique_ptr<Adam> optimizer,
              const Dataset& data, std::vector<std::size_t> indices,
              Rng rng);

  std::size_t sample_count() const { return indices_.size(); }

  /// The model's parameters where they live (Model::params()).
  std::span<const float> params() const { return model_.params(); }
  void set_weights(std::span<const float> w) { model_.set_params(w); }

  /// One federated round of local training; returns mean training loss.
  /// Adam steps the model's store in place; the model's activations are
  /// freed when the round ends.
  double train_round(const TrainOptions& opts);

  /// Test-set metrics. max_samples > 0 evaluates only a prefix (speed).
  EvalResult evaluate(const Dataset& test, std::size_t max_samples = 0);

  Model& model() { return model_; }

 private:
  Model model_;
  std::unique_ptr<Adam> optimizer_;
  const Dataset& data_;
  std::vector<std::size_t> indices_;
  Rng rng_;
};

/// Stateless evaluation helper shared by experiment harnesses. The
/// model's activations are freed when it returns.
EvalResult evaluate_model(Model& model, const Dataset& test, Rng& rng,
                          std::size_t max_samples = 0,
                          std::size_t batch_size = 100);

}  // namespace p2pfl::fl
