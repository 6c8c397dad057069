// The complete P2P federated-learning system (Fig. 1, end to end).
//
// Combines every substrate into the system the paper deploys:
//   * two-layer Raft backend — elects subgroup leaders and the FedAvg
//     leader, repairs them after crashes (§V);
//   * two-layer aggregation — SAC per subgroup + FedAvg layer (Alg. 3),
//     with fault-tolerant k-out-of-n SAC (Alg. 4) available;
//   * real local training — each peer owns a PeerTrainer (model +
//     optimizer + its data shard) and trains when a new global model
//     arrives.
//
// Round control is leader-driven, like the paper's flow: whichever peer
// currently holds FedAvg leadership (per its own Raft instance) runs a
// periodic driver that snapshots the current leadership from Raft and
// starts an aggregation round. If the FedAvg leader crashes mid-round,
// the round stalls, Raft elects a successor, and the successor's driver
// starts the next round — training continues without manual repair.
// Local training is instantaneous on the simulated clock except for a
// configurable `train_duration` that models compute time.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/two_layer_agg.hpp"
#include "core/two_layer_raft.hpp"
#include "fl/trainer.hpp"

namespace p2pfl::core {

struct SystemConfig {
  TwoLayerRaftOptions raft;
  AggregationConfig agg;
  fl::TrainOptions train;
  float learning_rate = 1e-3f;
  /// Cadence of the FedAvg leader's round driver.
  SimDuration round_interval = 2 * kSecond;
  /// Simulated compute time of one local training pass.
  SimDuration train_duration = 200 * kMillisecond;
  /// Retry cadence of a restarted peer's model catch-up pull.
  SimDuration catchup_retry = 300 * kMillisecond;
  /// Byzantine-detection attributions a peer survives before it is
  /// denounced into membership eviction (agg.detect_byzantine). Below
  /// the limit each attribution costs the peer one round (forgiven and
  /// re-admitted); a persistent adversary re-offends and is evicted.
  std::size_t suspect_strike_limit = 2;
  std::uint64_t seed = 42;

  /// Timing for a real clock (any transport where local training runs
  /// synchronously on the callback thread and can stall it for hundreds
  /// of milliseconds, e.g. under ThreadSanitizer). Elections sit well
  /// above the longest stall; protocol retries sit far above loopback
  /// latency, where a retry would only distort the byte accounting;
  /// rounds are long enough never to overlap. The same profile on the
  /// simulator makes its runs comparable to the socket runs.
  static SystemConfig real_clock();
};

class P2pFlSystem {
 public:
  /// One model instance per peer is built with `model_builder`.
  /// `data`/`test` must outlive the system; `parts[p]` is peer p's shard.
  P2pFlSystem(Topology topology, SystemConfig cfg, net::Network& net,
              const fl::Dataset& data, const fl::Dataset& test,
              const fl::PeerIndices& parts,
              const std::function<fl::Model()>& model_builder);

  /// Start Raft everywhere; rounds begin once a FedAvg leader exists.
  void start();

  // --- fault injection (delegates to the Raft backend) --------------------
  void crash_peer(PeerId peer);
  void restart_peer(PeerId peer);
  /// Restart with persistent Raft state AND model state wiped: the peer
  /// re-enters from w0, rejoins its subgroup (see
  /// TwoLayerRaftSystem::restart_peer_amnesia) and pulls the latest
  /// global model from its leader to catch up.
  void restart_peer_amnesia(PeerId peer);

  // --- observation ----------------------------------------------------------
  TwoLayerRaftSystem& raft() { return raft_; }
  TwoLayerAggregator& aggregator() { return *aggregator_; }
  std::size_t rounds_completed() const { return rounds_completed_; }
  /// Rounds that started but never produced a global model: superseded,
  /// torn down (e.g. partition), or closed with zero subgroup uploads.
  std::size_t rounds_aborted() const { return rounds_aborted_; }

  /// Latest global model this peer received (empty before the first
  /// completed round).
  const std::vector<float>& global_model_at(PeerId peer) const;

  /// Evaluate the freshest global model on the test set.
  fl::EvalResult evaluate_global();

  /// Byzantine-detection strikes per peer (see suspect_strike_limit).
  const std::map<PeerId, std::size_t>& strikes() const { return strikes_; }

  /// Fired on completion of each aggregation round (on the FedAvg
  /// leader), with the number of subgroup models aggregated.
  std::function<void(std::uint64_t round, const secagg::Vector&,
                     std::size_t groups_used)>
      on_round_complete;
  /// Fired when the FedAvg leader's driver starts an aggregation round,
  /// before any round message goes on the wire (so an observer can
  /// snapshot counters at the round boundary).
  std::function<void(std::uint64_t round)> on_round_started;
  /// Fired when a started round closes without a global model: failed
  /// (zero uploads), superseded, or torn down under partition.
  std::function<void(std::uint64_t round)> on_round_aborted;

 private:
  struct PeerRuntime {
    std::unique_ptr<fl::PeerTrainer> trainer;
    std::vector<float> current_weights;   // after local training
    std::vector<float> latest_global;     // last received global model
    std::unique_ptr<net::Timer> driver;   // round driver (acts if leader)
    std::unique_ptr<net::Timer> trainer_done;  // models compute time
    /// Retries the model pull until a push (or a live round) arrives.
    std::unique_ptr<net::Timer> catchup_timer;
    bool training = false;
    /// Round of the newest global model this peer holds (0 = only w0).
    std::uint64_t last_global_round = 0;
    /// Causal span covering the simulated local-training pass.
    obs::SpanId train_span = obs::kNoSpan;
  };

  void drive_round(PeerId self);
  void model_received(std::uint64_t round, PeerId peer,
                      const secagg::Vector& global);
  void begin_local_training(PeerId peer);
  void send_model_pull(PeerId peer);
  void handle_model_pull(PeerId peer, const wire::ModelPullMsg& msg);

  Topology topology_;
  SystemConfig cfg_;
  net::Network& net_;
  const fl::Dataset& test_;
  TwoLayerRaftSystem raft_;
  std::unique_ptr<TwoLayerAggregator> aggregator_;
  std::map<PeerId, PeerRuntime> peers_;
  fl::Model eval_model_;
  Rng eval_rng_;
  std::uint64_t last_round_started_ = 0;
  std::uint64_t rounds_completed_ = 0;
  std::uint64_t rounds_aborted_ = 0;
  std::vector<float> freshest_global_;
  /// Shared initial weights, the reset point for amnesia restarts.
  std::vector<float> w0_;
  /// Subgroups currently parked out of rounds (no electable leader).
  std::vector<char> parked_;
  /// Byzantine-detection strikes per peer (escalates to denounce()).
  std::map<PeerId, std::size_t> strikes_;
};

}  // namespace p2pfl::core
