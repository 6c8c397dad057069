// Reusable chaos soaks over the full protocol stack.
//
// run_chaos_soak: two-layer aggregation under a fault plan.
//
// Runs N aggregation rounds of the full TwoLayerAggregator stack (SAC
// subgroups + FedAvg layer) over a network with ambient stochastic
// faults (loss / duplication / reordering) while a ChaosEngine injects
// crash-restart churn and an optional partition window. Leadership is
// re-derived each round from liveness (first live member of each
// subgroup), standing in for the Raft backend so the soak isolates the
// aggregation protocol's own retry hardening.
//
// Every peer contributes the constant model (p + 1), so the exact global
// model of any committed round is known in closed form: the mean of
// (p + 1) over the round's contributing peers. The harness checks every
// commit against it — a committed-but-wrong model (double-counted
// duplicate, share from a stale round, missed contributor) is the one
// failure mode a liveness metric cannot see.
//
// Used by `p2pflctl chaos`, the tier-1 chaos tests and the slow soak.
//
// run_heal_soak: the self-healing scenario on crash-durable Raft state,
// over whatever transport the Network runs on (`p2pflctl chaos --wal`,
// TcpChaosSoak).
//
// run_training: the fault-free full-system training run whose every
// round is checked against Eq. (4)/(5), on either transport
// (`p2pflctl train`, TransportEquivalence).
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/two_layer_raft.hpp"
#include "fl/data.hpp"
#include "net/network.hpp"
#include "obs/critical_path.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"

namespace p2pfl::chaos {

struct ChaosSoakConfig {
  std::size_t peers = 12;
  std::size_t groups = 3;
  std::size_t rounds = 10;
  std::size_t dim = 8;
  std::uint64_t seed = 1;
  SimDuration round_interval = 2 * kSecond;
  /// Ambient network behaviour; set `net.faults` for loss/dup/reorder.
  net::NetworkConfig net{.base_latency = 15 * kMillisecond};
  /// Dropouts each subgroup tolerates after its share phase (Alg. 4 k).
  std::size_t dropout_tolerance = 2;
  /// Crash/restart churn across all peers during the bulk of the run
  /// (0 = none). Churn stops three intervals before the end so the
  /// trailing rounds demonstrate recovery.
  SimDuration churn_mttf = 0;
  SimDuration churn_mttr = 1 * kSecond;
  /// Partition window: subgroup 0 vs the rest (0 = none).
  SimTime partition_at = 0;
  SimTime heal_at = 0;
  /// Record the full trace stream into ChaosSoakResult::trace_json.
  bool capture_trace = false;
  /// Record causal spans: per-round critical paths for committed rounds,
  /// an abort post-mortem whenever on_round_aborted fires, and the full
  /// span dump. Also tears down a trailing undecided round at the end so
  /// its abort reaches the flight recorder.
  bool capture_spans = false;
  /// Record one obs::RoundSample per round (latency, phase breakdown,
  /// bytes vs the Eq. (4)/(5) closed form, retries/drops/churn deltas)
  /// into ChaosSoakResult::timeseries_jsonl.
  bool capture_timeseries = false;
  /// SLO rules the RoundWatchdog evaluates per sample (implies
  /// capture_timeseries when non-empty). Breaches land in slo_report /
  /// slo_alerts; alert post-mortems need capture_spans for evidence.
  std::vector<obs::SloRule> slo_rules;
  /// Fired live after each round's sample is judged (p2pflctl watch).
  std::function<void(const obs::RoundSample&,
                     const std::vector<obs::SloBreach>&)>
      on_sample;
};

struct RoundOutcome {
  std::uint64_t round = 0;
  bool committed = false;
  std::size_t contributors = 0;
  double max_abs_error = 0.0;
};

struct ChaosSoakResult {
  std::size_t rounds_started = 0;
  std::size_t rounds_committed = 0;
  /// Started rounds that closed without a global model.
  std::size_t rounds_aborted = 0;
  /// Ticks skipped outright because no live leader candidate existed.
  std::size_t rounds_skipped = 0;
  bool all_commits_exact = true;
  double max_abs_error = 0.0;
  /// At least one commit, and one within the last three started rounds
  /// (the plan leaves the tail fault-free, so recovery must show there).
  bool liveness_ok = false;
  std::size_t crashes = 0;
  std::size_t restarts = 0;
  std::vector<RoundOutcome> outcomes;
  net::TrafficStats traffic;
  std::string trace_json;  // only when cfg.capture_trace
  // --- only when cfg.capture_spans --------------------------------------
  /// One JSON object per retained span (obs::spans_jsonl format).
  std::string spans_jsonl;
  /// Critical path of every committed round, in round order.
  std::vector<obs::CriticalPath> critical_paths;
  /// Flight-recorder dumps, one per aborted round, in abort order.
  std::vector<obs::Postmortem> postmortems;
  // --- only when cfg.capture_timeseries / cfg.slo_rules -----------------
  /// One RoundSample JSON object per round (obs::RoundSeries::jsonl).
  std::string timeseries_jsonl;
  /// SLO verdict over the whole run (empty-ruled engines stay healthy).
  obs::SloReport slo_report;
  /// Alert post-mortems, one per breach (bounded), in breach order.
  std::vector<obs::SloAlert> slo_alerts;
};

ChaosSoakResult run_chaos_soak(const ChaosSoakConfig& cfg);

struct HealSoakConfig {
  std::size_t peers = 12;
  std::size_t groups = 3;
  /// Rounds that must have completed, counted from start, for a heal.
  std::size_t min_rounds = 8;
  std::uint64_t seed = 7;
  /// Directory of every peer's write-ahead log. Existing state in it is
  /// recovered at start (a resumed run).
  std::string wal_dir;
  /// Fired on the callback thread after each completed round with the
  /// number of rounds completed so far.
  std::function<void(std::size_t)> on_round;
};

struct HealSoakResult {
  /// Peers whose Raft state came back from wal_dir at start.
  std::size_t recovered_at_start = 0;
  /// Every subgroup and the FedAvg layer elected a leader in time.
  bool stabilized = false;
  /// The crashed pure follower (kNoPeer when the run never stabilized).
  PeerId victim = kNoPeer;
  bool victim_evicted = false;
  /// The victim rejoined, the cluster is fully healed and min_rounds
  /// rounds completed, within the budget.
  bool healed = false;
  /// The victim's restart replayed its write-ahead log.
  bool victim_recovered = false;
  std::uint64_t victim_snapshot_installs = 0;
  std::size_t faults_injected = 0;
  std::size_t rounds = 0;
  /// Transport time from start to the verdict, in seconds.
  double elapsed_s = 0.0;
  /// End state: peers configured into their subgroup, and the size of
  /// the FedAvg layer.
  std::set<PeerId> in_config;
  std::size_t fedavg_members = 0;
  double accuracy = 0.0;

  /// Healed, and the victim came back from disk with zero state
  /// transfer (an InstallSnapshot would mean the WAL was thrown away).
  bool ok() const {
    return healed && victim_recovered && victim_snapshot_installs == 0;
  }
};

/// Stabilize the full FL system (P2pFlSystem with the real-clock timing
/// profile and WAL-backed Raft state) on `net`, then, relative to that
/// moment: reset one connection and throttle one writer at +1 s, crash
/// a pure follower at +2 s for longer than the suspicion grace, and
/// restart it from its WAL at +10 s. Waits for the heal, then shuts the
/// transport down. Call from outside the transport's callback thread.
HealSoakResult run_heal_soak(net::Network& net, const HealSoakConfig& cfg);

/// The synthetic 8x8 task the full-system scenarios train an MLP on:
/// 400 training and 120 test images, split across `peers` as `dist`
/// says (see TrainingConfig::dist).
struct SyntheticTask {
  SyntheticTask(std::size_t peers, std::uint64_t seed,
                const std::string& dist = "iid");
  fl::TrainTest data;
  fl::PeerIndices parts;
};

struct TrainingConfig {
  std::size_t peers = 20;
  std::size_t groups = 5;
  /// SAC threshold within each subgroup of n: k = n is the n-out-of-n
  /// scheme of Eq. (4), k < n the k-out-of-n scheme of Eq. (5). 0 is n.
  std::size_t k = 0;
  /// Rounds whose payload is measured. The run lasts until rounds + 1
  /// rounds completed: the first completion is the baseline.
  std::size_t rounds = 10;
  std::uint64_t seed = 3;
  /// How the synthetic data is split across peers: "iid", "noniid5" or
  /// "noniid0" (fl::partition_non_iid with 5% or 0% off-class samples).
  std::string dist = "iid";
};

struct TrainingResult {
  /// rounds + 1 rounds completed within the budget.
  bool finished = false;
  /// Per-kind sent counters at each round completion, in order.
  std::vector<std::map<std::string, net::TrafficStats::Counter>> snapshots;
  /// Payload bytes sent in each measured round, between consecutive
  /// snapshots.
  std::vector<std::uint64_t> round_payload;
  /// The closed form per round in |w| units: Eq. (4), or Eq. (5) when
  /// k < n.
  double expected_units = 0.0;
  std::size_t rounds_completed = 0;
  std::size_t rounds_aborted = 0;
  /// The global model at the end (peer 0's copy) and its test accuracy.
  std::vector<float> global;
  double accuracy = 0.0;

  /// Measured round i's payload (0-based) in |w| units, |w| being the
  /// global model's bytes.
  double units(std::size_t i) const;
  /// Finished, and every measured round charged exactly expected_units.
  bool all_exact() const;
};

/// Train the full FL system (P2pFlSystem with the real-clock timing
/// profile, the MLP on the synthetic 8x8 task) on `net` until
/// cfg.rounds + 1 rounds completed, then shut the transport down. Call
/// from outside the transport's callback thread.
TrainingResult run_training(net::Network& net, const TrainingConfig& cfg);

/// Peers that lead neither their subgroup nor the FedAvg layer, in peer
/// order: the victims a crash or an attack can take without forcing an
/// election.
std::vector<PeerId> pure_followers(const core::TwoLayerRaftSystem& raft);

/// Every subgroup is led, unparked, free of suspicions and evictions,
/// and its leader holds a FedAvg-layer seat under a FedAvg leader.
bool fully_healed(const core::HealthReport& hr);

}  // namespace p2pfl::chaos
