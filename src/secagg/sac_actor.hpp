// Message-driven SAC participant (the protocol form of Algs. 2 and 4).
//
// One SacPeer runs on each subgroup member; they exchange shares and
// subtotals through the simulated network, so the byte counters observed
// by net::Network are exactly the quantities the paper's cost analysis
// (§VII-A/B) counts, and crashes injected mid-protocol exercise the real
// recovery path of Alg. 4 (leader asks surviving replica holders for the
// missing subtotals — the Fig. 3 scenario).
//
// Two collection modes:
//  * broadcast (Alg. 2 baseline): every peer broadcasts its subtotal to
//    every other, all peers finish with the average;
//    cost 2n(n−1)|w| per round.
//  * leader collect (two-layer mode): the k−1 peers whose primary
//    subtotal the leader does not hold send it to the leader only;
//    cost {n(n−1)(n−k+1) + (k−1)}|w|, reducing to (n²−1)|w| at k = n.
//
// Share data plane: a peer splits its model with one split_run() straight
// into the bundles it sends and the shares it holds itself, each share
// byte written once into each part that holds it. It keeps no shares
// afterwards, only its model and the ShareSplitter seeded by the round's
// one draw from its Rng; a resend regenerates the asked-for bundle from a
// copy of that splitter, bit for bit the first send.
//
// Retry hardening (for lossy/duplicating networks, see src/chaos): while
// a peer's held subtotals are incomplete, it requests retransmission
// from silent positions on a capped-exponential-backoff timer; all
// handlers are idempotent, so duplicated or retransmitted messages never
// double-count. The leader's subtotal recovery cycles through replica
// holders for several passes (a holder that was merely behind answers on
// a later pass) before declaring the round unrecoverable. In a
// fault-free round no retry timer ever fires and the wire cost is
// unchanged.
//
// Round control (who calls begin_round, restarts after a pre-share-phase
// dropout, pushing the result up to the FedAvg layer) belongs to the
// two-layer system in src/core.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "net/mux.hpp"
#include "net/network.hpp"
#include "robust/attack.hpp"
#include "secagg/sac.hpp"
#include "net/transport.hpp"

namespace p2pfl::secagg {

using RoundId = std::uint64_t;

struct SacActorOptions {
  /// Reconstruction threshold k (clamped to the group size per round).
  std::size_t k = 0;  // 0 = n (no fault tolerance, plain SAC)
  /// Alg. 2 mode: subtotals are broadcast and every peer completes.
  bool broadcast_subtotals = false;
  /// Wire size of one share / subtotal. 0 = 4 bytes * model dimension.
  /// Setting it explicitly lets cost experiments model a 1.25M-parameter
  /// CNN while computing on tiny vectors.
  std::uint64_t wire_bytes_per_share = 0;
  /// Base patience for shares / subtotals; retries back off from here,
  /// doubling each firing up to 8x the base timeout.
  SimDuration share_timeout = 500 * kMillisecond;
  SimDuration subtotal_timeout = 500 * kMillisecond;
  /// Leader: retransmission requests sent before on_share_timeout
  /// reports the still-silent positions (non-leaders retry forever; the
  /// round controller supersedes them). A missing subtotal is requested
  /// from its replica holders for three full cycles before the round is
  /// declared unrecoverable.
  std::size_t share_retry_limit = 2;
  /// Share-consistency detection: every share bundle carries an FNV-1a
  /// commitment of the sender's whole split, holders echo commitment
  /// digests to the leader, and the leader attributes inconsistent or
  /// equivocating senders via on_byzantine. Off by default — it adds
  /// framing bytes to every share bundle plus one echo per member per
  /// round, so the historical Eq. (4)/(5) byte accounting only changes
  /// when a deployment opts in.
  bool detect_inconsistent_shares = false;
  /// Adversary registry consulted at the Byzantine injection points
  /// (inconsistent share distribution, equivocating resends). nullptr =
  /// everyone honest. The caller owns the registry; it outlives the
  /// actor.
  const robust::ByzantineRegistry* byzantine = nullptr;
};

/// Messages (bodies carried in net::Envelope::body). fields() is each
/// one's wire layout (common/serialize.hpp; codecs in secagg/wire).
struct SacShareMsg {
  RoundId round = 0;
  std::uint32_t from_pos = 0;
  std::vector<std::pair<std::uint32_t, Vector>> parts;  // (share idx, data)
  /// Share-consistency commitment (detection mode only, else empty):
  /// FNV-1a digest of each of the sender's n shares, same vector to
  /// every holder. A holder checks its own parts against it and echoes
  /// the vector's digest to the leader, so a sender that distributed
  /// inconsistent shares is caught either by the direct check (data ≠
  /// commitment) or by the cross-holder echo (commitments differ).
  std::vector<std::uint64_t> commit;

  /// The commitment rides as a trailer, so a non-detecting round keeps
  /// the historical encoding (and byte accounting).
  template <typename Self, typename IO>
  static void fields(Self& m, IO& io) {
    io(m.round, m.from_pos, m.parts);
    io.trailer(m.commit);
  }
  bool operator==(const SacShareMsg&) const = default;
};
/// Per-holder detection report, sent to the leader when the share phase
/// settles: for every position, the digest of the commit vector first
/// seen from it (0 = nothing received) and whether any of its bundles
/// failed the direct data-vs-commitment check or changed commitments
/// between sends.
struct SacCommitEchoMsg {
  RoundId round = 0;
  std::uint32_t from_pos = 0;
  std::vector<std::uint64_t> digests;
  std::vector<std::uint8_t> bad;

  template <typename Self, typename IO>
  static void fields(Self& m, IO& io) {
    io(m.round, m.from_pos, m.digests, m.bad);
  }
  bool operator==(const SacCommitEchoMsg&) const = default;
};
struct SacSubtotalMsg {
  RoundId round = 0;
  std::uint32_t idx = 0;
  Vector value;

  template <typename Self, typename IO>
  static void fields(Self& m, IO& io) {
    io(m.round, m.idx, m.value);
  }
  bool operator==(const SacSubtotalMsg&) const = default;
};
struct SacSubtotalReq {
  RoundId round = 0;
  std::uint32_t idx = 0;
  std::uint32_t reply_to_pos = 0;

  template <typename Self, typename IO>
  static void fields(Self& m, IO& io) {
    io(m.round, m.idx, m.reply_to_pos);
  }
  bool operator==(const SacSubtotalReq&) const = default;
};
/// "Your shares for my position never arrived — send them again."
struct SacShareReq {
  RoundId round = 0;
  std::uint32_t reply_to_pos = 0;

  template <typename Self, typename IO>
  static void fields(Self& m, IO& io) {
    io(m.round, m.reply_to_pos);
  }
  bool operator==(const SacShareReq&) const = default;
};

class SacPeer {
 public:
  /// `channel` namespaces this subgroup's SAC traffic (e.g. "sac/sg2").
  SacPeer(PeerId id, std::string channel, SacActorOptions opts,
          net::Network& net, net::PeerHost& host);
  ~SacPeer();

  SacPeer(const SacPeer&) = delete;
  SacPeer& operator=(const SacPeer&) = delete;

  /// Join round `round` contributing `model`. `group` lists the round's
  /// participants (identical on every member; defines share placement);
  /// `leader_pos` is the aggregation leader's position in it. Starting a
  /// newer round abandons any older one. `k_override` replaces the
  /// configured threshold for this round (0 = use SacActorOptions::k) —
  /// the two-layer system uses it to apply one dropout-tolerance budget
  /// to subgroups of different sizes.
  void begin_round(RoundId round, Vector model, std::vector<PeerId> group,
                   std::size_t leader_pos, std::size_t k_override = 0);

  /// Abandon the current round and cancel timers (peer crash / reset).
  void halt();

  PeerId id() const { return id_; }

  /// Fired when the average is known: on the leader in collect mode, on
  /// every live peer in broadcast mode.
  std::function<void(RoundId, const Vector&)> on_complete;
  /// Leader only: the share phase stayed incomplete after the retry
  /// budget; `missing` lists positions that contributed no shares. The
  /// caller decides how to restart.
  std::function<void(RoundId, const std::vector<std::size_t>&)>
      on_share_timeout;
  /// Leader only: a subtotal could not be recovered from any replica
  /// after all recovery passes (more than n−k peers lost) — the round
  /// is unrecoverable.
  std::function<void(RoundId)> on_unrecoverable;
  /// Leader only (detection mode): positions attributed as Byzantine
  /// this round — inconsistent share distribution proven by conflicting
  /// commitment digests, a direct data-vs-commitment mismatch, or a
  /// commitment that changed between sends. Fired as soon as a position
  /// is first attributed; each position is reported at most once per
  /// round.
  std::function<void(RoundId, const std::vector<std::size_t>&)> on_byzantine;

 private:
  struct RoundState {
    RoundId round = 0;
    std::vector<PeerId> group;
    std::size_t n = 0;
    std::size_t k = 0;
    std::size_t my_pos = 0;
    std::size_t leader_pos = 0;
    std::uint64_t share_bytes = 0;
    /// This peer's model and its splitter, seeded by the round's one
    /// draw from rng_ and never advanced: a copy regenerates any bundle.
    Vector model;
    std::optional<ShareSplitter> splitter;
    /// Detection mode: commitment over the true split (resends must
    /// repeat it bit-identically or be flagged as equivocation).
    std::vector<std::uint64_t> my_commit;
    /// Detection mode, every peer: first-seen commitment digest per
    /// position (0 = none yet) and whether a position's bundles ever
    /// failed a consistency check locally.
    std::vector<std::uint64_t> seen_digest;
    std::vector<std::uint8_t> peer_bad;
    bool echo_sent = false;
    /// Detection mode, leader: distinct commitment digests reported per
    /// position (across own observations and echoes), merged bad flags,
    /// and positions already attributed (each fires on_byzantine once).
    std::map<std::size_t, std::set<std::uint64_t>> digest_sets;
    std::vector<std::uint8_t> pos_bad;
    std::set<std::size_t> byzantine_suspects;
    /// Byzantine sender: how many equivocating resends were issued (each
    /// one shifts the payload further so no two sends agree).
    std::size_t equivocations_sent = 0;
    /// Accumulating subtotals for share indices this peer holds.
    std::map<std::size_t, std::vector<double>> acc;
    /// Per held index: which positions contributed already.
    std::map<std::size_t, std::vector<bool>> contributed;
    /// Which positions we received any shares from (dropout detection).
    std::vector<bool> got_share_from;
    /// Finished subtotals this peer holds.
    std::map<std::size_t, Vector> subtotal;
    /// Leader: all collected subtotals by index.
    std::map<std::size_t, Vector> collected;
    /// Leader: recovery requests issued per missing index (cycles
    /// through the index's live-holder candidates, several passes).
    std::map<std::size_t, std::size_t> recovery_attempts;
    /// Retry-backoff bookkeeping.
    std::size_t share_retries = 0;
    std::size_t recovery_rounds = 0;
    bool share_phase_done = false;
    bool completed = false;
    /// Causal spans (kNoSpan when span recording is disabled): the share
    /// phase from begin_round to the last needed share, and the subtotal
    /// wait (leader collect window / broadcast completion wait).
    obs::SpanId share_span = obs::kNoSpan;
    obs::SpanId subtotal_span = obs::kNoSpan;
  };

  bool is_leader() const;
  /// One typed route per message kind. The shared gate keeps the old
  /// dispatch semantics: messages for a round this peer has not begun
  /// yet are stashed for begin_round, stale rounds are dropped.
  template <typename T, typename Fn>
  void route_msg(const char* suffix, Fn handler) {
    host_.route(channel_ + suffix,
                [this, handler](const net::Envelope& env) {
                  const T* msg = net::payload<T>(env.body);
                  if (msg == nullptr) return;
                  const RoundId current = round_ ? round_->round : 0;
                  if (!round_ || msg->round > current) {
                    stash_.emplace_back(msg->round, env);
                    return;
                  }
                  if (msg->round < current) return;  // stale
                  handler(*msg);
                });
  }
  void handle_share(const SacShareMsg& msg);
  void handle_subtotal(const SacSubtotalMsg& msg);
  void handle_request(const SacSubtotalReq& msg);
  void handle_share_request(const SacShareReq& msg);
  void handle_commit_echo(const SacCommitEchoMsg& msg);
  /// The bundle for `dest_pos`: one model-sized part per share index
  /// that position holds; split_into fills them.
  SacShareMsg blank_bundle(std::size_t dest_pos) const;
  /// Fill every part of `bundles` with its share of this round's model,
  /// in one split_run() of a copy of the round's splitter: each share is
  /// split into one part that holds it and copied into the others. A
  /// share no part wants is computed and dropped. With `digests`, each
  /// share's FNV-1a digest (wire::share_digest) is taken into it.
  void split_into(std::span<SacShareMsg> bundles,
                  std::vector<std::uint64_t>* digests) const;
  /// Apply any active Byzantine behaviour to the bundle about to go to
  /// `dest_pos` and attach the commitment (recomputed for perturbed
  /// parts, so the lie is self-consistent — only cross-holder
  /// comparison can catch it), then send it.
  void send_bundle(std::size_t dest_pos, SacShareMsg msg, bool resend);
  /// Detection bookkeeping for one received bundle. Updates first-seen
  /// digests / bad flags; on the leader feeds attribution directly.
  /// Returns false when the bundle failed its direct consistency check
  /// (its parts must not be contributed).
  bool check_share_consistency(const SacShareMsg& msg);
  void send_commit_echo();
  /// Leader attribution; each returns true when `pos` became newly
  /// suspect.
  bool note_digest(std::size_t pos, std::uint64_t digest);
  bool note_bad(std::size_t pos);
  void report_suspects(std::vector<std::size_t> newly);
  void contribute(std::size_t from_pos, std::size_t idx,
                  const Vector& share);
  void maybe_finish_share_phase();
  void emit_subtotals();
  void leader_collect(std::size_t idx, const Vector& value);
  void maybe_complete();
  void on_share_timer();
  void on_subtotal_timer();
  void request_missing_subtotals();
  SimDuration backoff(SimDuration base, std::size_t step) const;
  std::uint64_t share_wire_bytes(std::size_t dim) const;

  const PeerId id_;
  const std::string channel_;
  const SacActorOptions opts_;
  net::Network& net_;
  net::PeerHost& host_;
  Rng rng_;
  std::optional<RoundState> round_;
  /// Messages for rounds this peer has not begun yet (begin_round control
  /// and peer shares race over equal-latency links).
  std::vector<std::pair<RoundId, net::Envelope>> stash_;
  net::Timer share_timer_;
  net::Timer subtotal_timer_;
};

}  // namespace p2pfl::secagg
