#include "raft/node.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"
#include "raft/wire.hpp"

namespace p2pfl::raft {

namespace {
/// Max log entries shipped per AppendEntries RPC.
constexpr std::size_t kMaxEntriesPerAppend = 128;
}  // namespace

const char* role_name(Role r) {
  switch (r) {
    case Role::kFollower: return "follower";
    case Role::kCandidate: return "candidate";
    case Role::kLeader: return "leader";
  }
  return "?";
}

RaftNode::RaftNode(PeerId id, std::string channel,
                   std::vector<PeerId> initial_members, RaftOptions opts,
                   net::Network& net, net::PeerHost& host, WalStorage* storage)
    : id_(id),
      channel_(std::move(channel)),
      initial_members_(std::move(initial_members)),
      opts_(opts),
      net_(net),
      host_(host),
      storage_(storage),
      rng_(net.rng().fork(0x7261'6674ULL ^ id)),
      config_(initial_members_),
      election_timer_(
          net.transport(),
          [this] {
            // Follower: suspects the leader is gone. Candidate: the
            // election reached no outcome. Either way, start (another)
            // election.
            if (running_ && role_ != Role::kLeader) start_election();
          },
          channel_ + ".election_timeout"),
      heartbeat_timer_(
          net.transport(),
          [this] {
            if (running_ && role_ == Role::kLeader) broadcast_append();
          },
          channel_ + ".heartbeat") {
  P2PFL_CHECK(opts_.election_timeout_min > 0);
  P2PFL_CHECK(opts_.election_timeout_max >= opts_.election_timeout_min);
  std::sort(config_.begin(), config_.end());
  snapshot_members_ = config_;
  if (storage_) {
    // Replay the WAL (Figure 2 persistent state) before anything else.
    // Volatile state is rebuilt by restart(); callers that see
    // recovered_from_storage() must resume via restart(), which also
    // re-installs the recovered snapshot into the application.
    PersistentState st = storage_->load();
    const RecoveryInfo& info = storage_->recovery();
    obs::Observability& o = net_.obs();
    if (st.has_state) {
      recovered_from_storage_ = true;
      term_ = st.term;
      voted_for_ = st.voted_for;
      log_.restore(st.snap_index, st.snap_term, std::move(st.entries));
      if (st.snap_index > 0) {
        snapshot_members_ = std::move(st.snap_members);
        snapshot_state_ = std::move(st.snap_app_state);
      }
      commit_ = log_.snapshot_index();
      applied_ = log_.snapshot_index();
      adopt_latest_config();
      o.metrics.counter("raft.recoveries").add(1);
      P2PFL_INFO() << channel_ << " peer " << id_ << " recovered from WAL: term "
                   << term_ << ", log [" << log_.snapshot_index() + 1 << ", "
                   << log_.last_index() << "]"
                   << (info.truncated_tail ? " (torn tail truncated)" : "");
    }
    if (info.truncated_tail) o.metrics.counter("raft.wal_truncations").add(1);
    o.metrics
        .histogram("raft.recovery_ms",
                   obs::Histogram::exponential_bounds(0.01, 2.0, 20))
        .record(info.duration_ms);
  }
  wire::register_codecs();
  // One typed route per RPC kind: the payload arrives as the exact
  // struct the codec registry knows for that kind, no string dispatch.
  route_rpc<RequestVoteArgs>(
      "/rv", [this](const RequestVoteArgs& m) { handle_request_vote(m); });
  route_rpc<RequestVoteReply>("/rvr", [this](const RequestVoteReply& m) {
    handle_request_vote_reply(m);
  });
  route_rpc<AppendEntriesArgs>("/ae", [this](const AppendEntriesArgs& m) {
    handle_append_entries(m);
  });
  route_rpc<AppendEntriesReply>("/aer", [this](const AppendEntriesReply& m) {
    handle_append_entries_reply(m);
  });
  route_rpc<InstallSnapshotArgs>("/is", [this](const InstallSnapshotArgs& m) {
    handle_install_snapshot(m);
  });
  route_rpc<InstallSnapshotReply>(
      "/isr",
      [this](const InstallSnapshotReply& m) { handle_install_snapshot_reply(m); });
  route_rpc<TimeoutNowArgs>(
      "/tn", [this](const TimeoutNowArgs& m) { handle_timeout_now(m); });
}

RaftNode::~RaftNode() {
  for (const char* suffix : {"/rv", "/rvr", "/ae", "/aer", "/is", "/isr", "/tn"}) {
    host_.unroute(channel_ + suffix);
  }
}

bool RaftNode::in_config() const {
  return std::find(config_.begin(), config_.end(), id_) != config_.end();
}

SimTime RaftNode::follower_last_contact(PeerId follower) const {
  if (!is_leader()) return -1;
  auto it = follower_contact_.find(follower);
  return it == follower_contact_.end() ? -1 : it->second;
}

bool RaftNode::quorum_contact_recent() const {
  if (!in_config()) return false;
  std::size_t fresh = 1;  // self
  const SimTime now = net_.now();
  for (const auto& [m, t] : follower_contact_) {
    if (m != id_ && now - t < opts_.election_timeout_min) ++fresh;
  }
  return fresh >= quorum();
}

void RaftNode::start() {
  if (running_) return;
  running_ = true;
  role_ = Role::kFollower;
  leader_hint_ = kNoPeer;
  first_timeout_pending_ = opts_.initial_election_timeout > 0;
  if (in_config()) reset_election_timer();
}

void RaftNode::stop() {
  if (!running_) return;
  running_ = false;
  election_timer_.cancel();
  heartbeat_timer_.cancel();
  if (role_ == Role::kLeader) {
    net_.obs().metrics.gauge("raft.leaders." + channel_).add(-1);
  }
  obs::SpanRecorder& sr = net_.obs().spans;
  for (const auto& [idx, span] : replicate_spans_) sr.close_aborted(span);
  replicate_spans_.clear();
  role_ = Role::kFollower;
  leader_hint_ = kNoPeer;
  last_leader_contact_ = -1;
}

void RaftNode::restart() {
  P2PFL_CHECK_MSG(!running_, "restart() requires a stopped node");
  // Volatile state is rebuilt from the surviving persistent state; the
  // commit index is relearned from the next leader contact (§5.3 note:
  // commitIndex is volatile). The state machine restores from the
  // persisted snapshot and replays the surviving log tail.
  commit_ = log_.snapshot_index();
  applied_ = log_.snapshot_index();
  if (log_.snapshot_index() > 0 && on_snapshot_install) {
    on_snapshot_install(log_.snapshot_index(), snapshot_state_);
  }
  votes_.clear();
  next_index_.clear();
  match_index_.clear();
  pending_config_ = 0;
  adopt_latest_config();
  running_ = true;
  role_ = Role::kFollower;
  leader_hint_ = kNoPeer;
  if (in_config()) reset_election_timer();
}

SimDuration RaftNode::random_election_timeout() {
  return rng_.uniform_int(opts_.election_timeout_min,
                          opts_.election_timeout_max);
}

void RaftNode::reset_election_timer() {
  if (first_timeout_pending_) {
    first_timeout_pending_ = false;
    election_timer_.arm(opts_.initial_election_timeout);
    return;
  }
  election_timer_.arm(random_election_timeout());
}

// --- durability write-through ----------------------------------------------

void RaftNode::persist_term_vote() {
  if (storage_) storage_->persist_term_vote(term_, voted_for_);
}

void RaftNode::persist_append(Index index, const LogEntry& entry) {
  if (storage_) storage_->append_entry(index, entry);
}

void RaftNode::persist_truncate(Index index) {
  if (storage_) storage_->truncate_from(index);
}

void RaftNode::persist_snapshot() {
  if (!storage_) return;
  storage_->save_snapshot(log_.snapshot_index(), log_.snapshot_term(),
                          snapshot_members_, snapshot_state_, term_,
                          voted_for_, log_.slice(log_.first_index(),
                                                 log_.size()));
}

void RaftNode::persist_sync() {
  if (storage_) storage_->sync();
}

// --- role transitions ------------------------------------------------------

void RaftNode::become_follower(Term term, PeerId leader_hint) {
  const bool was_leader = role_ == Role::kLeader;
  if (term > term_) {
    term_ = term;
    voted_for_ = kNoPeer;
    persist_term_vote();
    persist_sync();
    net_.obs().metrics.counter("raft.term_bumps").add(1);
  }
  role_ = Role::kFollower;
  prevote_phase_ = false;
  if (leader_hint != kNoPeer) leader_hint_ = leader_hint;
  votes_.clear();
  heartbeat_timer_.cancel();
  if (in_config()) {
    reset_election_timer();
  } else {
    election_timer_.cancel();
  }
  if (was_leader) {
    P2PFL_DEBUG() << channel_ << " peer " << id_ << " stepped down (term "
                  << term_ << ")";
    obs::Observability& o = net_.obs();
    for (const auto& [idx, span] : replicate_spans_) {
      o.spans.close_aborted(span);
    }
    replicate_spans_.clear();
    follower_contact_.clear();
    o.metrics.counter("raft.stepdowns").add(1);
    o.metrics.gauge("raft.leaders." + channel_).add(-1);
    if (o.trace.category_enabled("raft")) {
      o.trace.instant("raft", "raft.step_down", id_,
                      {{"channel", channel_}, {"term", term_}});
    }
    if (on_step_down) on_step_down();
  }
}

void RaftNode::start_election() {
  if (!in_config()) {
    // Non-members never campaign; they wait to be configured in.
    election_timer_.cancel();
    return;
  }
  if (opts_.pre_vote) {
    // §9.6: probe a quorum before touching the term. The timer re-arms
    // so an unanswered probe round simply retries.
    role_ = Role::kCandidate;
    prevote_phase_ = true;
    votes_.clear();
    votes_.insert(id_);
    reset_election_timer();
    if (votes_.size() >= quorum()) {
      start_real_election();
      return;
    }
    RequestVoteArgs args;
    args.term = term_ + 1;
    args.candidate = id_;
    args.last_log_index = log_.last_index();
    args.last_log_term = log_.last_term();
    args.pre_vote = true;
    for (PeerId p : config_) {
      if (p != id_) send_rpc(p, "/rv", args, RequestVoteArgs::kWireSize);
    }
    return;
  }
  start_real_election();
}

void RaftNode::start_real_election() {
  prevote_phase_ = false;
  role_ = Role::kCandidate;
  ++term_;
  voted_for_ = id_;
  persist_term_vote();
  persist_sync();
  votes_.clear();
  votes_.insert(id_);
  leader_hint_ = kNoPeer;
  ++metrics_.elections_started;
  obs::Observability& o = net_.obs();
  o.metrics.counter("raft.elections_started").add(1);
  o.metrics.counter("raft.term_bumps").add(1);
  if (o.trace.category_enabled("raft")) {
    o.trace.instant("raft", "raft.election_start", id_,
                    {{"channel", channel_}, {"term", term_}});
  }
  P2PFL_DEBUG() << channel_ << " peer " << id_ << " starts election, term "
                << term_;
  reset_election_timer();
  if (votes_.size() >= quorum()) {
    become_leader();  // single-member cluster
    return;
  }
  broadcast_request_vote();
}

void RaftNode::become_leader() {
  P2PFL_CHECK(role_ == Role::kCandidate);
  role_ = Role::kLeader;
  leader_hint_ = id_;
  ++metrics_.times_elected;
  obs::Observability& o = net_.obs();
  o.metrics.counter("raft.elections_won").add(1);
  o.metrics.gauge("raft.leaders." + channel_).add(1);
  if (o.trace.category_enabled("raft")) {
    o.trace.instant("raft", "raft.leader_elected", id_,
                    {{"channel", channel_}, {"term", term_}});
  }
  election_timer_.cancel();
  // Inherit any still-uncommitted config entry as the pending change.
  pending_config_ = 0;
  if (auto idx = log_.latest_config_index(); idx && *idx > commit_) {
    pending_config_ = *idx;
  }
  next_index_.clear();
  match_index_.clear();
  follower_contact_.clear();
  for (PeerId p : config_) {
    next_index_[p] = log_.last_index() + 1;
    match_index_[p] = p == id_ ? log_.last_index() : 0;
    if (p != id_) follower_contact_[p] = net_.now();
  }
  // §5.4.2: a fresh leader cannot directly commit entries from previous
  // terms; appending a current-term no-op lets them commit transitively.
  log_.append(LogEntry{term_, EntryKind::kNoop, {}});
  persist_append(log_.last_index(), log_.at(log_.last_index()));
  persist_sync();
  match_index_[id_] = log_.last_index();
  P2PFL_DEBUG() << channel_ << " peer " << id_ << " elected leader, term "
                << term_;
  broadcast_append();
  // Heartbeats at a third of the minimum election timeout.
  heartbeat_timer_.arm_periodic(opts_.election_timeout_min / 3);
  if (on_become_leader) on_become_leader();
}

// --- send side ---------------------------------------------------------------

template <typename T>
void RaftNode::send_rpc(PeerId to, const char* suffix, T args,
                        std::uint64_t wire_bytes) {
  net_.send(id_, to, channel_ + suffix, std::move(args), wire_bytes);
}

void RaftNode::broadcast_request_vote() {
  RequestVoteArgs args;
  args.term = term_;
  args.candidate = id_;
  args.last_log_index = log_.last_index();
  args.last_log_term = log_.last_term();
  for (PeerId p : config_) {
    if (p == id_) continue;
    send_rpc(p, "/rv", args, RequestVoteArgs::kWireSize);
  }
}

void RaftNode::send_append(PeerId to) {
  auto it = next_index_.find(to);
  if (it == next_index_.end()) return;
  const Index next = std::max<Index>(1, it->second);
  if (next <= log_.snapshot_index()) {
    // The entries the follower needs were compacted away (§7).
    send_install_snapshot(to);
    return;
  }
  AppendEntriesArgs args;
  args.term = term_;
  args.leader = id_;
  args.prev_log_index = next - 1;
  args.prev_log_term = log_.term_at(next - 1);
  args.entries = log_.slice(next, kMaxEntriesPerAppend);
  args.leader_commit = commit_;
  const std::uint64_t wire = args.wire_size();
  send_rpc(to, "/ae", std::move(args), wire);
}

void RaftNode::broadcast_append() {
  for (PeerId p : config_) {
    if (p != id_) send_append(p);
  }
}

// --- receive side -------------------------------------------------------------

void RaftNode::handle_request_vote(const RequestVoteArgs& args) {
  if (args.pre_vote) {
    // A pre-vote never mutates our state; grant iff we would plausibly
    // vote for this candidate in a real election right now.
    RequestVoteReply reply;
    reply.voter = id_;
    reply.term = term_;
    reply.pre_vote = true;
    const bool heard_leader_recently =
        last_leader_contact_ >= 0 &&
        net_.now() - last_leader_contact_ <
            opts_.election_timeout_min;
    reply.vote_granted =
        role_ != Role::kLeader && !heard_leader_recently &&
        args.term >= term_ &&
        log_.candidate_up_to_date(args.last_log_index, args.last_log_term);
    send_rpc(args.candidate, "/rvr", reply, RequestVoteReply::kWireSize);
    return;
  }
  // §4.2.3 stickiness: while we have heard from a live leader recently,
  // drop vote requests entirely (without even adopting the term), so a
  // server removed from the configuration — or one with a stale config —
  // cannot depose a healthy leader by inflating terms (essential once
  // membership changes, §V joins, happen). The leader itself applies the
  // check-quorum form: while a quorum of its followers is in active
  // contact it ignores vote requests too, closing the hole where the
  // removed server's inflated term deposes the leader directly.
  const bool follower_sticky =
      role_ == Role::kFollower && last_leader_contact_ >= 0 &&
      net_.now() - last_leader_contact_ < opts_.election_timeout_min;
  const bool leader_sticky = role_ == Role::kLeader && quorum_contact_recent();
  if (follower_sticky || leader_sticky) return;
  if (args.term > term_) become_follower(args.term, kNoPeer);

  RequestVoteReply reply;
  reply.voter = id_;
  reply.term = term_;
  reply.vote_granted = false;

  if (args.term == term_ && role_ != Role::kLeader &&
      (voted_for_ == kNoPeer || voted_for_ == args.candidate) &&
      log_.candidate_up_to_date(args.last_log_index, args.last_log_term)) {
    voted_for_ = args.candidate;
    persist_term_vote();
    persist_sync();
    reply.vote_granted = true;
    ++metrics_.votes_granted;
    // Granting a vote counts as hearing from a viable leader candidate.
    if (in_config()) reset_election_timer();
  }
  send_rpc(args.candidate, "/rvr", reply, RequestVoteReply::kWireSize);
}

void RaftNode::handle_request_vote_reply(const RequestVoteReply& reply) {
  if (reply.term > term_) {
    become_follower(reply.term, kNoPeer);
    return;
  }
  if (reply.pre_vote) {
    if (role_ != Role::kCandidate || !prevote_phase_ ||
        !reply.vote_granted) {
      return;
    }
    if (std::find(config_.begin(), config_.end(), reply.voter) ==
        config_.end()) {
      return;
    }
    votes_.insert(reply.voter);
    if (votes_.size() >= quorum()) start_real_election();
    return;
  }
  if (role_ != Role::kCandidate || prevote_phase_ || reply.term != term_ ||
      !reply.vote_granted) {
    return;
  }
  // Only votes from current configuration members count toward quorum.
  if (std::find(config_.begin(), config_.end(), reply.voter) ==
      config_.end()) {
    return;
  }
  votes_.insert(reply.voter);
  if (votes_.size() >= quorum()) become_leader();
}

void RaftNode::handle_append_entries(const AppendEntriesArgs& args) {
  AppendEntriesReply reply;
  reply.follower = id_;
  reply.success = false;

  if (args.term < term_) {
    reply.term = term_;
    send_rpc(args.leader, "/aer", reply, AppendEntriesReply::kWireSize);
    return;
  }
  // Equal or higher term: the sender is the legitimate leader for it.
  if (args.term > term_ || role_ != Role::kFollower) {
    become_follower(args.term, args.leader);
  }
  leader_hint_ = args.leader;
  last_leader_contact_ = net_.now();
  reply.term = term_;
  if (in_config()) reset_election_timer();

  // §5.3 consistency check.
  if (args.prev_log_index > log_.last_index()) {
    reply.conflict_index = log_.last_index() + 1;
    send_rpc(args.leader, "/aer", reply, AppendEntriesReply::kWireSize);
    return;
  }
  if (args.prev_log_index < log_.snapshot_index()) {
    // Our snapshot already covers this prefix; ask the leader to resume
    // right after it.
    reply.conflict_index = log_.snapshot_index() + 1;
    send_rpc(args.leader, "/aer", reply, AppendEntriesReply::kWireSize);
    return;
  }
  if (log_.term_at(args.prev_log_index) != args.prev_log_term) {
    // Back off to the first index of the conflicting term.
    const Term bad = log_.term_at(args.prev_log_index);
    Index first = args.prev_log_index;
    while (first > log_.first_index() && log_.term_at(first - 1) == bad) {
      --first;
    }
    reply.conflict_index = first;
    send_rpc(args.leader, "/aer", reply, AppendEntriesReply::kWireSize);
    return;
  }

  // Append new entries, truncating on the first mismatch.
  bool log_changed = false;
  Index idx = args.prev_log_index;
  for (const LogEntry& e : args.entries) {
    ++idx;
    if (idx <= log_.last_index()) {
      if (log_.term_at(idx) == e.term) continue;  // already have it
      P2PFL_CHECK_MSG(idx > commit_, "attempt to truncate committed entry");
      log_.truncate_from(idx);
      persist_truncate(idx);
    }
    log_.append(e);
    persist_append(idx, e);
    log_changed = true;
  }
  if (log_changed) {
    persist_sync();
    adopt_latest_config();
  }

  const Index last_new = args.prev_log_index + args.entries.size();
  if (args.leader_commit > commit_) {
    commit_ = std::min(args.leader_commit, last_new);
    apply_committed();
  }
  reply.success = true;
  reply.match_index = last_new;
  send_rpc(args.leader, "/aer", reply, AppendEntriesReply::kWireSize);
}

void RaftNode::handle_append_entries_reply(const AppendEntriesReply& reply) {
  if (reply.term > term_) {
    become_follower(reply.term, kNoPeer);
    return;
  }
  if (role_ != Role::kLeader || reply.term != term_) return;
  auto nit = next_index_.find(reply.follower);
  if (nit == next_index_.end()) return;  // no longer a member
  follower_contact_[reply.follower] = net_.now();

  if (reply.success) {
    match_index_[reply.follower] =
        std::max(match_index_[reply.follower], reply.match_index);
    nit->second = match_index_[reply.follower] + 1;
    advance_commit();
    // Keep streaming if the follower is still behind.
    if (nit->second <= log_.last_index()) send_append(reply.follower);
  } else {
    const Index hint = reply.conflict_index;
    nit->second = std::max<Index>(
        1, std::min<Index>(hint == 0 ? nit->second - 1 : hint,
                           nit->second - 1));
    send_append(reply.follower);
  }
}

// --- commit machinery ---------------------------------------------------------

void RaftNode::advance_commit() {
  for (Index idx = log_.last_index(); idx > commit_; --idx) {
    // §5.4.2: only entries of the current term commit by counting.
    if (log_.term_at(idx) != term_) break;
    std::size_t replicas = 0;
    for (PeerId p : config_) {
      const Index match = p == id_ ? log_.last_index() : match_index_[p];
      if (match >= idx) ++replicas;
    }
    if (replicas >= quorum()) {
      commit_ = idx;
      apply_committed();
      break;
    }
  }
}

void RaftNode::apply_committed() {
  obs::Counter& applied_counter =
      net_.obs().metrics.counter("raft.entries_applied");
  while (applied_ < commit_) {
    ++applied_;
    const LogEntry& e = log_.at(applied_);
    ++metrics_.entries_applied;
    applied_counter.add(1);
    if (!replicate_spans_.empty()) {
      auto sit = replicate_spans_.find(applied_);
      if (sit != replicate_spans_.end()) {
        // Credit the AppendEntries reply (or quorum-forming link) whose
        // arrival advanced the commit index past this entry.
        obs::SpanRecorder& sr = net_.obs().spans;
        obs::SpanId closer = sr.current();
        if (closer == sit->second) closer = obs::kNoSpan;
        sr.close(sit->second, closer);
        replicate_spans_.erase(sit);
      }
    }
    if (e.kind == EntryKind::kConfig) {
      if (pending_config_ == applied_) pending_config_ = 0;
      // A leader that committed its own removal steps down (§4.2.2).
      if (role_ == Role::kLeader && !in_config()) {
        become_follower(term_, kNoPeer);
      }
    } else if (e.kind == EntryKind::kCommand && on_apply) {
      on_apply(applied_, e);
    }
  }
  maybe_auto_compact();
}

void RaftNode::maybe_auto_compact() {
  if (opts_.compaction_threshold == 0) return;
  if (applied_ - log_.snapshot_index() >= opts_.compaction_threshold) {
    compact();
  }
}

void RaftNode::compact() {
  if (applied_ <= log_.snapshot_index()) return;
  // Membership is part of every snapshot: the latest config entry at or
  // below the compaction point (else the previous snapshot's).
  for (Index i = applied_; i >= log_.first_index(); --i) {
    if (log_.at(i).kind == EntryKind::kConfig) {
      snapshot_members_ = decode_members(log_.at(i).data);
      break;
    }
  }
  snapshot_state_ = on_snapshot_save ? on_snapshot_save() : Bytes{};
  log_.compact_to(applied_);
  persist_snapshot();
}

bool RaftNode::push_snapshot(PeerId to) {
  if (!running_ || role_ != Role::kLeader || to == id_) return false;
  compact();
  if (log_.snapshot_index() == 0) return false;
  // compact() no-ops when nothing new was applied; re-save so the push
  // carries the state machine's current blob, not the last compaction's
  // (the app payload piggy-backed on snapshots can move without log
  // entries — e.g. a new global model landing between config commits).
  if (on_snapshot_save) snapshot_state_ = on_snapshot_save();
  send_install_snapshot(to);
  return true;
}

void RaftNode::send_install_snapshot(PeerId to) {
  InstallSnapshotArgs args;
  args.term = term_;
  args.leader = id_;
  args.last_included_index = log_.snapshot_index();
  args.last_included_term = log_.snapshot_term();
  args.members = snapshot_members_;
  args.app_state = snapshot_state_;
  net::WireSize size;
  size.wire = args.wire_size();
  size.payload = snapshot_payload ? snapshot_payload(snapshot_state_) : 0;
  net_.send(id_, to, channel_ + "/is", std::move(args), size);
}

void RaftNode::handle_install_snapshot(const InstallSnapshotArgs& args) {
  InstallSnapshotReply reply;
  reply.follower = id_;
  if (args.term < term_) {
    reply.term = term_;
    send_rpc(args.leader, "/isr", reply, InstallSnapshotReply::kWireSize);
    return;
  }
  if (args.term > term_ || role_ != Role::kFollower) {
    become_follower(args.term, args.leader);
  }
  leader_hint_ = args.leader;
  last_leader_contact_ = net_.now();
  reply.term = term_;
  if (in_config()) reset_election_timer();

  const Index idx = args.last_included_index;
  if (idx <= log_.snapshot_index()) {
    // Already covered by our own snapshot.
    reply.match_index = log_.snapshot_index();
    send_rpc(args.leader, "/isr", reply, InstallSnapshotReply::kWireSize);
    return;
  }
  if (log_.has_term(idx) && log_.term_at(idx) == args.last_included_term) {
    // §7: the snapshot describes a prefix we already have — just compact
    // (our applied state already covers it once commit catches up).
    if (applied_ >= idx) {
      log_.compact_to(idx);
      snapshot_members_ = args.members;
      snapshot_state_ = args.app_state;
      persist_snapshot();
      // Still hand the blob to the application: the piggy-backed payload
      // (e.g. the newest global model in a catch-up push) may carry
      // state the replicated log alone never did.
      if (on_snapshot_install) on_snapshot_install(idx, snapshot_state_);
    }
  } else {
    // Replace everything with the snapshot.
    log_.install_snapshot(idx, args.last_included_term);
    snapshot_members_ = args.members;
    snapshot_state_ = args.app_state;
    commit_ = idx;
    applied_ = idx;
    persist_snapshot();
    ++metrics_.snapshot_installs;
    obs::Observability& o = net_.obs();
    o.metrics.counter("raft.snapshot_installs").add(1);
    if (o.trace.category_enabled("raft")) {
      o.trace.instant("raft", "raft.snapshot_install", id_,
                      {{"channel", channel_}, {"index", idx}});
    }
    if (on_snapshot_install) on_snapshot_install(idx, snapshot_state_);
    adopt_latest_config();
  }
  reply.match_index = idx;
  send_rpc(args.leader, "/isr", reply, InstallSnapshotReply::kWireSize);
}

void RaftNode::handle_install_snapshot_reply(
    const InstallSnapshotReply& reply) {
  if (reply.term > term_) {
    become_follower(reply.term, kNoPeer);
    return;
  }
  if (role_ != Role::kLeader || reply.term != term_) return;
  auto it = next_index_.find(reply.follower);
  if (it == next_index_.end()) return;
  follower_contact_[reply.follower] = net_.now();
  match_index_[reply.follower] =
      std::max(match_index_[reply.follower], reply.match_index);
  it->second = std::max(it->second, reply.match_index + 1);
  if (it->second <= log_.last_index()) send_append(reply.follower);
}

void RaftNode::adopt_latest_config() {
  // Membership rule: a server uses the latest configuration in its log
  // as soon as the entry is *appended*, not committed.
  std::vector<PeerId> fresh;
  if (auto idx = log_.latest_config_index()) {
    fresh = decode_members(log_.at(*idx).data);
    pending_config_ = *idx > commit_ ? *idx : 0;
  } else {
    // No config entry left in the log: fall back to the snapshot's
    // membership (which starts out as the bootstrap configuration).
    fresh = snapshot_members_;
    std::sort(fresh.begin(), fresh.end());
    pending_config_ = 0;
  }
  if (fresh == config_) return;
  config_ = std::move(fresh);

  if (role_ == Role::kLeader) {
    for (PeerId p : config_) {
      if (next_index_.count(p) == 0) {
        next_index_[p] = log_.last_index() + 1;
        match_index_[p] = 0;
        follower_contact_[p] = net_.now();
      }
    }
    for (auto it = next_index_.begin(); it != next_index_.end();) {
      if (std::find(config_.begin(), config_.end(), it->first) ==
          config_.end()) {
        match_index_.erase(it->first);
        follower_contact_.erase(it->first);
        it = next_index_.erase(it);
      } else {
        ++it;
      }
    }
  } else if (running_) {
    if (in_config()) {
      if (!election_timer_.armed()) reset_election_timer();
    } else {
      election_timer_.cancel();
      if (role_ == Role::kCandidate) role_ = Role::kFollower;
    }
  }
  if (on_config_adopted) on_config_adopted(config_);
}

// --- client operations ----------------------------------------------------------

std::optional<Index> RaftNode::propose(Bytes command) {
  if (!is_leader()) return std::nullopt;
  log_.append(LogEntry{term_, EntryKind::kCommand, std::move(command)});
  const Index idx = log_.last_index();
  persist_append(idx, log_.at(idx));
  persist_sync();
  match_index_[id_] = idx;
  obs::SpanRecorder& sr = net_.obs().spans;
  obs::SpanId rep = obs::kNoSpan;
  if (sr.enabled()) {
    // Propose -> applied-on-this-leader; the AppendEntries fan-out below
    // chains to it through the stack scope.
    rep = sr.open(obs::SpanKind::kRaftReplicate, channel_ + "/replicate",
                  id_, sr.current_ctx().round);
    replicate_spans_[idx] = rep;
  }
  obs::SpanStackScope rep_scope(sr, rep);
  broadcast_append();
  advance_commit();  // single-member clusters commit immediately
  return idx;
}

std::optional<Index> RaftNode::propose_add_server(PeerId server) {
  if (!is_leader() || pending_config_ != 0) return std::nullopt;
  if (std::find(config_.begin(), config_.end(), server) != config_.end()) {
    return std::nullopt;
  }
  std::vector<PeerId> next = config_;
  next.push_back(server);
  log_.append(LogEntry{term_, EntryKind::kConfig, encode_members(next)});
  persist_append(log_.last_index(), log_.at(log_.last_index()));
  persist_sync();
  match_index_[id_] = log_.last_index();
  pending_config_ = log_.last_index();
  adopt_latest_config();
  broadcast_append();
  advance_commit();
  return log_.last_index();
}

std::optional<Index> RaftNode::propose_remove_server(PeerId server) {
  if (!is_leader() || pending_config_ != 0) return std::nullopt;
  if (std::find(config_.begin(), config_.end(), server) == config_.end()) {
    return std::nullopt;
  }
  std::vector<PeerId> next;
  next.reserve(config_.size() - 1);
  for (PeerId p : config_) {
    if (p != server) next.push_back(p);
  }
  log_.append(LogEntry{term_, EntryKind::kConfig, encode_members(next)});
  persist_append(log_.last_index(), log_.at(log_.last_index()));
  persist_sync();
  match_index_[id_] = log_.last_index();
  pending_config_ = log_.last_index();
  adopt_latest_config();
  broadcast_append();
  advance_commit();
  return log_.last_index();
}

bool RaftNode::transfer_leadership(PeerId transferee) {
  if (!is_leader() || transferee == id_) return false;
  if (std::find(config_.begin(), config_.end(), transferee) ==
      config_.end()) {
    return false;
  }
  // Push any missing entries, then ask the transferee to campaign now.
  send_append(transferee);
  TimeoutNowArgs args;
  args.term = term_;
  args.leader = id_;
  send_rpc(transferee, "/tn", args, TimeoutNowArgs::kWireSize);
  return true;
}

void RaftNode::handle_timeout_now(const TimeoutNowArgs& args) {
  if (args.term != term_ || role_ == Role::kLeader || !in_config()) return;
  // The leader solicited this election: skip PreVote and stickiness.
  start_real_election();
}

}  // namespace p2pfl::raft
