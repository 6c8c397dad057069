// Message-driven two-layer aggregation (Alg. 3 as a protocol).
//
// One aggregation round over the simulated network:
//   1. every subgroup runs SAC (leader-collect mode) on channel
//      "sac/sg<g>" — the SacPeer actors implement Alg. 2 / Alg. 4;
//   2. each subgroup leader uploads its SAC average (weight = subgroup
//      size) to the FedAvg leader ("agg/upload", one |w| transfer);
//   3. the FedAvg leader waits for ceil(p*m) subgroup models (its own
//      included) or a timeout (§VI-A3 "slow subgroups"), computes the
//      peer-count-weighted FedAvg, and returns the result to the other
//      subgroup leaders ("agg/result");
//   4. subgroup leaders fan the global model out to their followers
//      ("agg/model").
//
// In a fault-free round the bytes this puts on the wire are exactly the
// paper's Eq. (4) (k = n) or Eq. (5) (k < n) — verified by tests and by
// the Fig. 13/14 benches, which print the model and the simulated
// numbers side by side.
//
// Leadership is an input to each round (supplied by the two-layer Raft
// backend in the full system, or fixed in cost simulations); leader
// crash recovery between rounds is the backend's job.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/topology.hpp"
#include "core/wire.hpp"
#include "net/mux.hpp"
#include "net/network.hpp"
#include "robust/rules.hpp"
#include "secagg/sac_actor.hpp"
#include "net/transport.hpp"

namespace p2pfl::core {

struct AggregationConfig {
  /// Dropouts each subgroup survives after its share phase: a subgroup
  /// of n_i runs k_i-out-of-n_i SAC with k_i = n_i - sac_dropout_tolerance
  /// (floored at 1). 0 = plain n-out-of-n SAC. A "k-n setting" of the
  /// paper maps to sac_dropout_tolerance = n - k.
  std::size_t sac_dropout_tolerance = 0;
  /// Wire size of one model transfer; 0 = 4 bytes * model dimension.
  std::uint64_t model_wire_bytes = 0;
  /// Fraction p of subgroup models the FedAvg leader waits for.
  double fraction_p = 1.0;
  /// FedAvg-leader patience before aggregating whatever arrived.
  SimDuration collect_timeout = 2 * kSecond;
  /// Passed through to the SAC actors.
  SimDuration sac_share_timeout = 500 * kMillisecond;
  SimDuration sac_subtotal_timeout = 500 * kMillisecond;
  /// Share-phase retransmission requests before the SAC leader reports
  /// the silent peers (see SacActorOptions::share_retry_limit).
  std::size_t sac_share_retry_limit = 2;
  /// Subgroup-leader "agg/upload" retry: first resend after upload_retry,
  /// doubling up to 8x, at most 5 resends; stops as soon as the round's
  /// result (or a new round) arrives. In a fault-free round the result
  /// arrives long before the first resend, so the wire cost is unchanged.
  SimDuration upload_retry = 1 * kSecond;
  /// FedAvg-layer aggregation rule over the subgroup subtotals. The
  /// default (kMean) is the paper's plain weighted FedAvg, bit-exact
  /// with every pre-Byzantine golden; trimmed mean / median / norm-clip
  /// tolerate a bounded fraction of lying subgroups.
  robust::RobustConfig robust;
  /// Byzantine detection: share-consistency commitments inside every
  /// subgroup's SAC round plus upload-equivocation hashing at the
  /// FedAvg leader. Detected peers land in suspects() and are excluded
  /// from later rounds' SAC groups (and the reconstruction threshold
  /// clamps to the smaller group, like a degraded subgroup). Off by
  /// default: it adds commitment/echo framing bytes to the share phase.
  bool detect_byzantine = false;
  /// Adversary registry consulted at every injection point (model
  /// poisoning, subtotal lies, equivocating uploads, and — inside the
  /// SAC actors — inconsistent shares). nullptr = everyone honest.
  const robust::ByzantineRegistry* byzantine = nullptr;
};

/// Assigns per-round leadership (from Raft, or fixed for simulations).
struct RoundLeadership {
  std::vector<PeerId> subgroup_leaders;  // indexed by SubgroupId
  PeerId fedavg_leader = kNoPeer;        // must be one of the above

  /// Fixed leadership: each subgroup's first member leads it, and
  /// subgroup 0's leader chairs the FedAvg layer.
  static RoundLeadership designated(const Topology& topology);
};

class TwoLayerAggregator {
 public:
  using RoundId = secagg::RoundId;
  using ModelProvider = std::function<secagg::Vector(PeerId)>;

  /// `host_of` must yield the PeerHost attached for each topology peer;
  /// the aggregator registers its "sac/sg<g>" and "agg/" routes there.
  /// Without it the aggregator creates, attaches and owns one host per
  /// peer, and detaches them when destroyed (on TCP, destroy it after the
  /// transport's shutdown()).
  TwoLayerAggregator(const Topology& topology, AggregationConfig cfg,
                     net::Network& net,
                     std::function<net::PeerHost&(PeerId)> host_of = {});
  ~TwoLayerAggregator();

  TwoLayerAggregator(const TwoLayerAggregator&) = delete;
  TwoLayerAggregator& operator=(const TwoLayerAggregator&) = delete;

  /// Start one aggregation round. `model_of` supplies each live peer's
  /// current local model. Crashed peers (net.crashed) are excluded from
  /// their subgroup's SAC group up front (they could not have answered
  /// the leader's aggregation request).
  void begin_round(RoundId round, const RoundLeadership& leadership,
                   const ModelProvider& model_of);

  /// Cancel the current round on every peer (e.g. before a retry). An
  /// undecided round counts as aborted (metric `agg.rounds_aborted`).
  void abort_round();

  /// Peers whose models went into the most recent global model: the
  /// members of every subgroup whose upload made the FedAvg cut. Valid
  /// after on_global_model fires, until the next round begins.
  const std::vector<PeerId>& last_contributors() const {
    return last_contributors_;
  }

  /// Peers attributed as Byzantine by detection (detect_byzantine).
  /// They stay out of every subsequent round's SAC groups until cleared
  /// — the round controller decides whether to escalate to membership
  /// eviction or to forgive (e.g. after an eviction completed).
  const std::set<PeerId>& suspects() const { return suspects_; }
  void clear_suspect(PeerId id) { suspects_.erase(id); }

  /// Fired on the FedAvg leader when the global model is computed.
  /// `groups_used` counts subgroup models that made the cut.
  std::function<void(RoundId, const secagg::Vector&, std::size_t)>
      on_global_model;
  /// Fired on every peer when the global model reaches it.
  std::function<void(RoundId, PeerId, const secagg::Vector&)>
      on_model_received;
  /// Fired on the FedAvg leader if a whole round yields no models.
  std::function<void(RoundId)> on_round_failed;
  /// Fired when an undecided round is torn down (superseded or aborted
  /// under partition) before the FedAvg leader could aggregate.
  std::function<void(RoundId)> on_round_aborted;
  /// Fired (on the attributing leader's aggregator) when detection
  /// marks a peer as Byzantine: share inconsistency attributed by a SAC
  /// leader, or an equivocating upload caught by the FedAvg leader.
  /// Fires once per peer per detection site while the suspicion stands.
  std::function<void(RoundId, PeerId)> on_suspect;

 private:
  using UploadMsg = wire::AggUploadMsg;
  using ResultMsg = wire::AggResultMsg;

  struct PeerState {
    PeerId id = kNoPeer;
    SubgroupId group = 0;
    std::unique_ptr<secagg::SacPeer> sac;
    bool is_subgroup_leader = false;
    bool is_fed_leader = false;
    /// Upload awaiting its round's result; resent on upload_timer.
    std::optional<UploadMsg> pending_upload;
    std::size_t upload_attempts = 0;
    std::unique_ptr<net::Timer> upload_timer;
    /// Last round whose result this peer acted on. Results can arrive
    /// more than once (chaos duplication, upload-retry crossings); the
    /// relay/deliver must run exactly once per round.
    RoundId result_round = 0;
    /// Wait span covering upload sent -> round result received.
    obs::SpanId upload_span = obs::kNoSpan;
  };

  struct FedState {
    RoundId round = 0;
    std::size_t expected_groups = 0;
    std::size_t quorum = 0;
    std::map<SubgroupId, UploadMsg> uploads;
    /// Detection: digest of the first upload accepted per subgroup; a
    /// later upload for the same round whose digest differs is an
    /// equivocating subgroup leader.
    std::map<SubgroupId, std::uint64_t> upload_digest;
    bool done = false;
    /// Causal root of the round and the FedAvg leader's collect window.
    obs::SpanId round_span = obs::kNoSpan;
    obs::SpanId collect_span = obs::kNoSpan;
  };

  std::uint64_t model_wire(std::size_t dim) const;
  void handle_upload(PeerState& p, const UploadMsg& msg);
  void handle_result(PeerState& p, const ResultMsg& msg);
  void sac_complete(PeerState& p, RoundId round, const secagg::Vector& avg,
                    std::size_t group_size);
  void fed_maybe_aggregate(PeerState& p, bool timed_out);
  void distribute(PeerState& leader, RoundId round,
                  const secagg::Vector& global);
  void retry_upload(PeerState& p);
  void settle_upload(PeerState& p, RoundId round);
  /// Active attack spec for `id`, or nullptr when honest/no registry.
  const robust::AttackSpec* attack_of(PeerId id) const;
  void mark_suspect(RoundId round, PeerId peer, const char* how);

  const Topology& topology_;
  AggregationConfig cfg_;
  net::Network& net_;
  /// Byzantine transforms only (poisoned models, lie offsets); honest
  /// rounds never draw from it, so enabling the machinery does not
  /// shift any pre-existing RNG stream.
  Rng byz_rng_;
  /// Hosts created when no host_of was given; they outlive peers_.
  std::map<PeerId, net::PeerHost> owned_hosts_;
  std::map<PeerId, PeerState> peers_;
  RoundLeadership leadership_;
  std::optional<FedState> fed_;
  net::Timer collect_timer_;
  /// Live SAC group per subgroup for the current round.
  std::vector<std::vector<PeerId>> round_groups_;
  /// Peers behind the most recent global model (see last_contributors()).
  std::vector<PeerId> last_contributors_;
  /// Detection-attributed Byzantine peers (see suspects()).
  std::set<PeerId> suspects_;
  RoundId round_ = 0;
  /// Virtual time at which the current round started (latency metric).
  SimTime round_start_ = 0;
};

}  // namespace p2pfl::core
