// One Raft consensus participant.
//
// Full hand-rolled Raft (Ongaro & Ousterhout): randomized leader election
// with U(T, 2T) timeouts (matching the paper's §VI-B setup), log
// replication with the §5.3 consistency check and conflict back-off,
// the §5.4 safety restrictions (up-to-date voting rule; only current-term
// entries are committed directly, older ones commit transitively via a
// fresh leader's no-op entry), and single-server cluster membership
// changes (Raft dissertation §4) — the mechanism the two-layer system
// uses when a newly elected subgroup leader joins the FedAvg layer.
//
// A peer may host several RaftNode instances on different channels (its
// subgroup cluster and the FedAvg-layer cluster); envelopes are routed by
// channel prefix through net::PeerHost. Nodes are driven entirely by the
// discrete-event simulator: no threads, no wall-clock.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/mux.hpp"
#include "net/network.hpp"
#include "raft/log.hpp"
#include "raft/storage.hpp"
#include "raft/types.hpp"
#include "net/transport.hpp"

namespace p2pfl::raft {

enum class Role { kFollower, kCandidate, kLeader };

const char* role_name(Role r);

struct RaftOptions {
  /// Election timeout drawn uniformly from [min, max] on every reset.
  /// The paper samples from U(T, 2T); set min = T, max = 2T.
  SimDuration election_timeout_min = 150 * kMillisecond;
  SimDuration election_timeout_max = 300 * kMillisecond;
  /// First election timeout after start(); 0 = random like every other.
  /// A designated bootstrap leader gets a short value so it reliably
  /// wins the initial election (the paper's evaluation likewise starts
  /// from a steady state with known leaders).
  SimDuration initial_election_timeout = 0;
  /// §7 log compaction: snapshot automatically once this many applied
  /// entries accumulate past the previous snapshot (0 = manual only).
  std::size_t compaction_threshold = 0;
  /// §9.6 PreVote: poll electability before incrementing the term. Off
  /// by default (the paper's hashicorp baseline also defaults off);
  /// composes with leader stickiness (see handle_request_vote).
  bool pre_vote = false;
};

/// Observable protocol counters (used by tests and the Raft benches).
struct RaftMetrics {
  std::uint64_t elections_started = 0;
  std::uint64_t votes_granted = 0;
  std::uint64_t times_elected = 0;
  std::uint64_t entries_applied = 0;
  /// Snapshots received via InstallSnapshot (state transfer). A WAL
  /// recovery that rejoins cleanly keeps this at 0.
  std::uint64_t snapshot_installs = 0;
};

class RaftNode {
 public:
  /// `channel` namespaces this cluster's RPC traffic (e.g. "raft/sg3").
  /// `initial_members` is the bootstrap configuration; it is superseded
  /// by any kConfig entry that later lands in the log.
  ///
  /// `storage` (optional, not owned, must outlive the node) makes the
  /// Figure-2 persistent state crash-durable: the constructor replays it
  /// via WalStorage::load() and every persistent-state mutation writes
  /// through before the node acts on it. When the replay recovered
  /// state, wire the callbacks and then call restart() instead of
  /// start() so the snapshot installs into the application and the
  /// recovered configuration is adopted.
  RaftNode(PeerId id, std::string channel,
           std::vector<PeerId> initial_members, RaftOptions opts,
           net::Network& net, net::PeerHost& host,
           WalStorage* storage = nullptr);
  ~RaftNode();

  RaftNode(const RaftNode&) = delete;
  RaftNode& operator=(const RaftNode&) = delete;

  /// Begin operating (as a follower). Idempotent.
  void start();

  /// Simulate a crash of this instance: all timers stop, incoming
  /// messages are ignored. Persistent state (term, vote, log) survives,
  /// exactly like a process that lost power.
  void stop();

  /// Rejoin after stop(). Volatile state (commit index, role) resets and
  /// is rebuilt through the protocol; applied entries replay, so attached
  /// state machines must be deterministic.
  void restart();

  bool running() const { return running_; }

  // --- observers --------------------------------------------------------
  PeerId id() const { return id_; }
  const std::string& channel() const { return channel_; }
  Role role() const { return role_; }
  bool is_leader() const { return running_ && role_ == Role::kLeader; }
  Term current_term() const { return term_; }
  /// Last leader this node heard from (kNoPeer if unknown this term).
  PeerId leader_hint() const { return leader_hint_; }
  Index commit_index() const { return commit_; }
  Index last_log_index() const { return log_.last_index(); }
  const RaftLog& log() const { return log_; }
  const std::vector<PeerId>& members() const { return config_; }
  bool in_config() const;
  const RaftMetrics& metrics() const { return metrics_; }
  /// True while a proposed membership change is still uncommitted.
  bool config_change_in_flight() const { return pending_config_ != 0; }
  /// Leader-side failure detector input: simulated time of the last
  /// AppendEntries/InstallSnapshot reply received from `follower` this
  /// term. Members that have never replied report the moment they were
  /// first tracked (election or config adoption), so the suspicion grace
  /// window starts counting from there. Returns -1 when not leader or
  /// the peer is not a tracked member.
  SimTime follower_last_contact(PeerId follower) const;
  /// Follower-side counterpart: simulated time this node last accepted a
  /// message from a current leader (-1 before any contact or after
  /// stop()). A member whose log predates its own removal can use a long
  /// silence here as the only available eviction signal.
  SimTime last_leader_contact() const { return last_leader_contact_; }
  /// Check-quorum (leader side): true while a quorum of the current
  /// configuration has replied within the minimum election timeout.
  bool quorum_contact_recent() const;

  // --- client operations (leader only; nullopt when not leader) ---------
  /// Replicate an opaque command. Returns its log index.
  std::optional<Index> propose(Bytes command);

  /// Single-server membership changes. At most one may be in flight
  /// (uncommitted) at a time; returns nullopt if one already is, if not
  /// leader, or if the change is a no-op.
  std::optional<Index> propose_add_server(PeerId server);
  std::optional<Index> propose_remove_server(PeerId server);

  /// Leadership transfer (§3.10): bring `transferee` fully up to date
  /// happens via normal replication; this sends TimeoutNow so it
  /// campaigns immediately. Returns false when not leader or the target
  /// is not a member. Best effort: if the transferee is behind, it
  /// simply loses the election and this leader carries on.
  bool transfer_leadership(PeerId transferee);

  // --- callbacks ---------------------------------------------------------
  /// Fired (on every node, in log order) when a kCommand entry commits.
  std::function<void(Index, const LogEntry&)> on_apply;
  /// Fired on this node when it wins an election.
  std::function<void()> on_become_leader;
  /// Fired on this node when it loses leadership.
  std::function<void()> on_step_down;
  /// Fired when a new configuration is adopted (at append time, per the
  /// membership-change rule).
  std::function<void(const std::vector<PeerId>&)> on_config_adopted;
  /// Snapshot hooks (§7). save: serialize the application state machine
  /// at the moment of compaction (called with everything up to the
  /// compaction point applied). install: replace the state machine with
  /// a snapshot received from the leader (or restored at restart()).
  std::function<Bytes()> on_snapshot_save;
  std::function<void(Index, const Bytes&)> on_snapshot_install;
  /// Application payload (model-transfer units, Eq. (4)/(5)) carried by
  /// a snapshot state blob; charged on every InstallSnapshot send so
  /// state-transfer catch-up shows up in the payload byte accounting.
  /// Unset = snapshots are pure framing (payload 0).
  std::function<std::uint64_t(const Bytes&)> snapshot_payload;

  /// Compact the log through the last applied entry (§7). No-op unless
  /// something new has been applied since the previous snapshot.
  void compact();

  /// Leader-initiated state transfer: compact, refresh the snapshot's
  /// application blob from on_snapshot_save (the blob may carry state —
  /// e.g. the newest global model — that moved without log entries), and
  /// send InstallSnapshot to `to`. Returns false unless this node is a
  /// running leader with a snapshot to send.
  bool push_snapshot(PeerId to);

  Index snapshot_index() const { return log_.snapshot_index(); }

  /// True when the constructor replayed durable state from storage.
  /// Such a node should be resumed with restart(), not start().
  bool recovered_from_storage() const { return recovered_from_storage_; }

 private:
  // Role transitions.
  void become_follower(Term term, PeerId leader_hint);
  void start_election();
  void start_real_election();
  void become_leader();

  // RPC send side.
  void broadcast_request_vote();
  void send_append(PeerId to);
  void broadcast_append();

  // RPC receive side. Each RPC kind has its own typed route; the
  // handler fires only while running and only for the exact payload type
  // (a mismatched body — impossible through the codecs — is ignored).
  template <typename T, typename Fn>
  void route_rpc(const char* suffix, Fn handler) {
    host_.route(channel_ + suffix,
                [this, handler](const net::Envelope& env) {
                  if (!running_) return;
                  if (const T* m = net::payload<T>(env.body)) handler(*m);
                });
  }
  void handle_request_vote(const RequestVoteArgs& args);
  void handle_request_vote_reply(const RequestVoteReply& reply);
  void handle_append_entries(const AppendEntriesArgs& args);
  void handle_append_entries_reply(const AppendEntriesReply& reply);
  void send_install_snapshot(PeerId to);
  void handle_install_snapshot(const InstallSnapshotArgs& args);
  void handle_install_snapshot_reply(const InstallSnapshotReply& reply);
  void handle_timeout_now(const TimeoutNowArgs& args);
  void maybe_auto_compact();

  // Commit machinery.
  void advance_commit();
  void apply_committed();
  void adopt_latest_config();

  // Durability write-through (all no-ops when storage_ is null).
  void persist_term_vote();
  void persist_append(Index index, const LogEntry& entry);
  void persist_truncate(Index index);
  void persist_snapshot();
  void persist_sync();

  // Helpers.
  std::size_t quorum() const { return config_.size() / 2 + 1; }
  void reset_election_timer();
  SimDuration random_election_timeout();
  template <typename T>
  void send_rpc(PeerId to, const char* suffix, T args,
                std::uint64_t wire_bytes);

  const PeerId id_;
  const std::string channel_;
  const std::vector<PeerId> initial_members_;
  const RaftOptions opts_;
  net::Network& net_;
  net::PeerHost& host_;
  WalStorage* storage_ = nullptr;  // not owned; null = in-memory only
  bool recovered_from_storage_ = false;
  Rng rng_;

  // Persistent state (survives stop()/restart()).
  Term term_ = 0;
  PeerId voted_for_ = kNoPeer;
  RaftLog log_;
  /// Snapshot payload + membership at the snapshot point (persistent).
  Bytes snapshot_state_;
  std::vector<PeerId> snapshot_members_;

  // Volatile state.
  bool running_ = false;
  Role role_ = Role::kFollower;
  Index commit_ = 0;
  Index applied_ = 0;
  PeerId leader_hint_ = kNoPeer;
  std::vector<PeerId> config_;
  std::set<PeerId> votes_;
  std::map<PeerId, Index> next_index_;
  std::map<PeerId, Index> match_index_;
  Index pending_config_ = 0;  // index of uncommitted config change, 0 = none
  /// Leader-only: last reply time per follower (feeds the membership
  /// supervisor's suspicion clock). Cleared on step-down.
  std::map<PeerId, SimTime> follower_contact_;
  /// Leader-side causal spans: log index proposed -> applied here.
  /// Aborted (and cleared) on step-down.
  std::map<Index, obs::SpanId> replicate_spans_;
  /// Simulated time of the last valid leader contact (-1 = never).
  SimTime last_leader_contact_ = -1;
  bool first_timeout_pending_ = false;
  /// PreVote round in progress (role is still kCandidate but the term
  /// has not been incremented yet).
  bool prevote_phase_ = false;

  net::Timer election_timer_;
  net::Timer heartbeat_timer_;
  RaftMetrics metrics_;
};

}  // namespace p2pfl::raft
