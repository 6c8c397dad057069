// End-to-end federated-training harness (Figs. 6-9).
//
// Runs the paper's §VI-A experiments: N peers train local models, models
// are aggregated per round by one of
//   * one-layer SAC (the Wink & Nochta baseline, Alg. 2),
//   * the proposed two-layer SAC (Alg. 3, optionally the k-out-of-n
//     fault-tolerant variant of Alg. 4 with injected dropouts),
//   * plain FedAvg (no secure aggregation; the m = N corner of Fig. 13),
// and the global model is evaluated on the test set. Aggregation here
// uses the math form of SAC (secagg/sac.hpp), which computes the same
// average as the message-driven actor up to float rounding (the two
// agree within 1e-5) without paying for simulated transport in a
// 1000-round loop; the actor path is exercised by core/two_layer_agg and
// the integration tests.
//
// A round uses every parallel_for worker: the peers train concurrently,
// one task per peer, with idle workers taking kernel chunks of the last
// peers; each subgroup's SAC, the FedAvg and the evaluation run on all
// workers. Every result is bit-identical at any worker count.
//
// Scale knobs (model kind, rounds, samples) default to CI-friendly
// values; the bench binaries expose flags to run the paper's full
// configuration (Fig. 5 CNN, 1000 rounds).
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/topology.hpp"
#include "fl/data.hpp"
#include "fl/trainer.hpp"
#include "robust/attack.hpp"
#include "robust/rules.hpp"
#include "secagg/shares.hpp"

namespace p2pfl::core {

enum class DataDistribution {
  kIid,      // identically distributed across peers
  kNonIid5,  // 95% from two main classes, 5% from the rest
  kNonIid0,  // 100% from two main classes
};

const char* distribution_name(DataDistribution d);

enum class AggregationKind {
  kOneLayerSac,    // Alg. 2 over all N peers (baseline)
  kTwoLayerSac,    // Alg. 3 (SAC per subgroup + FedAvg layer)
  kPlainFedAvg,    // no SAC anywhere (m = N corner case)
};

enum class ModelKind { kMlp, kPaperCnn };

struct FlExperimentConfig {
  std::size_t peers = 10;
  /// Subgroup count m (two-layer only). 0 = derive from group_size.
  std::size_t subgroups = 0;
  /// Target subgroup size n; used when subgroups == 0. 0 = one group.
  std::size_t group_size = 0;
  AggregationKind aggregation = AggregationKind::kTwoLayerSac;
  DataDistribution distribution = DataDistribution::kIid;

  std::size_t rounds = 100;
  /// Fraction p of subgroups whose models the FedAvg leader waits for
  /// (Figs. 8-9). The per-round subset is drawn randomly (slow subgroups
  /// rotate); peers of excluded subgroups still train and still receive
  /// the global model.
  double fraction_p = 1.0;
  /// k for fault-tolerant SAC; 0 = n-out-of-n.
  std::size_t sac_k = 0;
  /// Weight subgroup members by their sample counts inside SAC (peers
  /// pre-scale their models by public weights n_k / sum n_k before
  /// sharing), making the global model the exact McMahan FedAvg even
  /// under unequal shard sizes. Off = the paper's unweighted Alg. 2/4.
  bool weight_by_samples = false;
  /// Per-peer probability of crashing *after* the share phase each round
  /// (exercises Alg. 4 recovery; a subgroup below quorum k drops out of
  /// the round).
  double dropout_after_share_prob = 0.0;

  ModelKind model = ModelKind::kMlp;
  std::vector<std::size_t> mlp_hidden = {64};
  fl::SyntheticSpec data;  // default: mnist_like-ish 28x28
  fl::TrainOptions train;  // 1 epoch, batch 50 (paper defaults)
  float learning_rate = 1e-4f;  // Adam, as in §VI-A1

  std::size_t eval_every = 5;
  std::size_t eval_samples = 0;  // 0 = full test set
  std::uint64_t seed = 42;

  // --- Byzantine robustness (bench/attack_sweep) -------------------------
  /// Fraction of peers turned adversarial, assigned to WHOLE subgroups
  /// first (peers 0,1,... in topology order). Concentration matters:
  /// SAC masks individual updates inside a subgroup, so a poisoner
  /// spread thin is diluted into honest subtotals, while a captured
  /// subgroup controls its subtotal outright — the threat the FedAvg-
  /// layer robust rules defend against (see DESIGN.md).
  double byzantine_fraction = 0.0;
  /// What the Byzantine peers do. Model-poisoning kinds perturb the
  /// peer's update before SAC; the subtotal/protocol kinds perturb the
  /// subgroup's SAC average on its way up (a lying aggregator), applied
  /// when the subgroup's first member — its aggregator here — is
  /// Byzantine.
  robust::AttackSpec attack;
  /// FedAvg-layer aggregation rule over the subgroup subtotals.
  robust::RobustConfig robust;
};

struct RoundRecord {
  std::size_t round = 0;
  double train_loss = 0.0;
  /// Present on evaluation rounds only.
  std::optional<double> test_accuracy;
  std::optional<double> test_loss;
};

struct FlExperimentResult {
  std::vector<RoundRecord> records;
  double final_accuracy = 0.0;
  double final_test_loss = 0.0;
  /// Rounds where a subgroup fell below quorum k and was skipped.
  std::size_t subgroup_quorum_failures = 0;
  /// Peers that acted adversarially (byzantine_fraction of the peers).
  std::size_t byzantine_peers = 0;
  std::size_t model_params = 0;
  /// The final global model (checkpointable via fl/checkpoint.hpp).
  std::vector<float> final_weights;
};

/// Optional per-round observer (progress reporting in benches).
using RoundObserver = std::function<void(const RoundRecord&)>;

FlExperimentResult run_fl_experiment(const FlExperimentConfig& cfg,
                                     const RoundObserver& observer = {});

}  // namespace p2pfl::core
