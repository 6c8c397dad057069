#include "secagg/sac_actor.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"
#include "secagg/wire.hpp"

namespace p2pfl::secagg {

namespace {

/// Retry timers double each firing, capped at this multiple of the base
/// timeout.
constexpr std::size_t kBackoffCap = 8;
/// Full cycles through a subtotal's replica holders before the round is
/// declared unrecoverable.
constexpr std::size_t kRecoveryPasses = 3;

/// Kind family of a channel ("ml/g3" -> "ml"): the codec-registry key
/// prefix shared by every channel of the same protocol.
std::string family_of(const std::string& channel) {
  const std::size_t slash = channel.find('/');
  return slash == std::string::npos ? channel : channel.substr(0, slash);
}

}  // namespace

SacPeer::SacPeer(PeerId id, std::string channel, SacActorOptions opts,
                 net::Network& net, net::PeerHost& host)
    : id_(id),
      channel_(std::move(channel)),
      opts_(opts),
      net_(net),
      host_(host),
      rng_(net.rng().fork(0x7361'63ULL ^ (id * 2654435761ULL))),
      share_timer_(net.transport(), [this] { on_share_timer(); },
                   channel_ + ".share_timeout"),
      subtotal_timer_(net.transport(), [this] { on_subtotal_timer(); },
                      channel_ + ".subtotal_timeout") {
  wire::register_codecs(family_of(channel_));
  route_msg<SacShareMsg>(
      "/share", [this](const SacShareMsg& m) { handle_share(m); });
  route_msg<SacSubtotalMsg>(
      "/subtotal", [this](const SacSubtotalMsg& m) { handle_subtotal(m); });
  route_msg<SacSubtotalReq>(
      "/request", [this](const SacSubtotalReq& m) { handle_request(m); });
  route_msg<SacShareReq>("/share_req", [this](const SacShareReq& m) {
    handle_share_request(m);
  });
  route_msg<SacCommitEchoMsg>("/echo", [this](const SacCommitEchoMsg& m) {
    handle_commit_echo(m);
  });
}

SacPeer::~SacPeer() {
  for (const char* suffix :
       {"/share", "/subtotal", "/request", "/share_req", "/echo"}) {
    host_.unroute(channel_ + suffix);
  }
}

bool SacPeer::is_leader() const {
  return round_ && round_->my_pos == round_->leader_pos;
}

std::uint64_t SacPeer::share_wire_bytes(std::size_t dim) const {
  return opts_.wire_bytes_per_share > 0 ? opts_.wire_bytes_per_share
                                        : 4 * static_cast<std::uint64_t>(dim);
}

SimDuration SacPeer::backoff(SimDuration base, std::size_t step) const {
  std::size_t mult = 1;
  for (std::size_t i = 0; i < step && mult < kBackoffCap; ++i) {
    mult *= 2;
  }
  if (mult > kBackoffCap) mult = kBackoffCap;
  return base * static_cast<SimDuration>(mult);
}

void SacPeer::halt() {
  if (round_) {
    obs::SpanRecorder& sr = net_.obs().spans;
    sr.close_aborted(round_->share_span);
    sr.close_aborted(round_->subtotal_span);
  }
  round_.reset();
  share_timer_.cancel();
  subtotal_timer_.cancel();
}

void SacPeer::begin_round(RoundId round, Vector model,
                          std::vector<PeerId> group,
                          std::size_t leader_pos, std::size_t k_override) {
  P2PFL_CHECK(!group.empty());
  P2PFL_CHECK(leader_pos < group.size());
  if (round_ && round_->round >= round) return;  // stale request
  halt();

  const std::size_t configured = k_override > 0 ? k_override : opts_.k;
  RoundState st;
  st.round = round;
  st.n = group.size();
  st.k = opts_.broadcast_subtotals
             ? st.n  // Alg. 2 has no threshold; every subtotal is primary
             : (configured == 0 ? st.n : std::min(configured, st.n));
  st.group = std::move(group);
  st.leader_pos = leader_pos;
  const auto me =
      std::find(st.group.begin(), st.group.end(), id_) - st.group.begin();
  P2PFL_CHECK_MSG(static_cast<std::size_t>(me) < st.n,
                  "this peer is not in the round's group");
  st.my_pos = static_cast<std::size_t>(me);
  st.share_bytes = share_wire_bytes(model.size());
  st.got_share_from.assign(st.n, false);
  st.model = std::move(model);
  // divide()'s one draw: every share keeps the bits divide() gives it.
  st.splitter.emplace(st.n, SplitScheme::kProportional, rng_);
  round_ = std::move(st);

  obs::Observability& o = net_.obs();
  o.metrics.counter("sac.rounds_started").add(1);
  if (o.trace.category_enabled("agg")) {
    o.trace.instant("agg", "sac.share_phase", id_,
                    {{"channel", channel_},
                     {"round", round},
                     {"n", round_->n},
                     {"k", round_->k}});
  }
  if (o.spans.enabled()) {
    round_->share_span = o.spans.open(obs::SpanKind::kSacShare,
                                      channel_ + "/share_phase", id_, round);
  }
  // Keep the share span current for the rest of begin_round: outgoing
  // share links and any synchronous completion chain to it.
  obs::SpanStackScope share_scope(o.spans, round_->share_span);

  // One bundle per position, this peer's own included: the split writes
  // every share straight into the parts of all its holders.
  const std::size_t n = round_->n;
  const std::size_t my_pos = round_->my_pos;
  std::vector<SacShareMsg> bundles;
  bundles.reserve(n);
  for (std::size_t j = 0; j < n; ++j) bundles.push_back(blank_bundle(j));
  if (opts_.detect_inconsistent_shares) {
    round_->my_commit.assign(n, wire::kEmptyShareDigest);
    split_into(bundles, &round_->my_commit);
    round_->seen_digest.assign(n, 0);
    round_->peer_bad.assign(n, 0);
    round_->pos_bad.assign(n, 0);
  } else {
    split_into(bundles, nullptr);
  }

  // Distribute the n−k+1 consecutive shares each peer replicates, then
  // contribute this peer's own.
  for (std::size_t j = 0; j < n; ++j) {
    if (j != my_pos) send_bundle(j, std::move(bundles[j]), /*resend=*/false);
  }
  for (const auto& [s, data] : bundles[my_pos].parts) {
    contribute(my_pos, s, data);
  }

  // Every peer watches its own share phase: when it stays incomplete the
  // timer requests retransmissions (and, on the leader, eventually
  // reports the still-silent positions upward).
  share_timer_.arm(opts_.share_timeout);
  maybe_finish_share_phase();

  // Replay any messages for this round that arrived before we started
  // it: re-deliver through the host so each lands on its typed route.
  auto stash = std::move(stash_);
  stash_.clear();
  for (auto& [r, env] : stash) {
    if (r == round) {
      host_.deliver(env);
    } else if (r > round) {
      stash_.emplace_back(r, std::move(env));
    }
  }
}

void SacPeer::handle_share(const SacShareMsg& msg) {
  P2PFL_CHECK(round_.has_value());
  if (msg.from_pos >= round_->n) return;
  if (!check_share_consistency(msg)) return;  // flagged: never contribute
  for (const auto& [idx, data] : msg.parts) {
    contribute(msg.from_pos, idx, data);
  }
  maybe_finish_share_phase();
}

void SacPeer::handle_share_request(const SacShareReq& msg) {
  RoundState& st = *round_;
  if (msg.reply_to_pos >= st.n ||
      msg.reply_to_pos == static_cast<std::uint32_t>(st.my_pos)) {
    return;
  }
  if (!st.splitter) return;  // never split in this round
  SacShareMsg out = blank_bundle(msg.reply_to_pos);
  split_into({&out, 1}, nullptr);
  net_.obs().metrics.counter("sac.share_resends").add(1);
  send_bundle(msg.reply_to_pos, std::move(out), /*resend=*/true);
}

SacShareMsg SacPeer::blank_bundle(std::size_t dest_pos) const {
  const RoundState& st = *round_;
  SacShareMsg msg;
  msg.round = st.round;
  msg.from_pos = static_cast<std::uint32_t>(st.my_pos);
  msg.parts.reserve(st.n - st.k + 1);
  all_replica_share_indices(dest_pos, st.n, st.k, [&](std::size_t s) {
    msg.parts.emplace_back(static_cast<std::uint32_t>(s),
                           Vector(st.model.size()));
    return true;
  });
  return msg;
}

void SacPeer::split_into(std::span<SacShareMsg> bundles,
                         std::vector<std::uint64_t>* digests) const {
  const RoundState& st = *round_;
  const std::size_t n = st.n;
  const std::size_t dim = st.model.size();
  // Share s is split into the first part that holds it and copied into
  // the others; a share no part holds goes to a scratch row.
  std::vector<float*> rows(n, nullptr);
  std::vector<std::pair<float*, std::size_t>> copies;  // (part, share)
  for (SacShareMsg& b : bundles) {
    for (auto& [s, data] : b.parts) {
      if (rows[s] == nullptr) {
        rows[s] = data.data();
      } else {
        copies.emplace_back(data.data(), s);
      }
    }
  }
  const std::size_t unheld =
      static_cast<std::size_t>(std::count(rows.begin(), rows.end(), nullptr));
  Vector scratch(unheld * dim);
  for (std::size_t s = 0, next = 0; s < n; ++s) {
    if (rows[s] == nullptr) rows[s] = scratch.data() + dim * next++;
  }
  std::vector<double> work;
  ShareSplitter splitter = *st.splitter;
  splitter.split_run(st.model, rows, work);
  for (const auto& [part, s] : copies) std::copy_n(rows[s], dim, part);
  if (digests != nullptr) {
    for (std::size_t s = 0; s < n; ++s) {
      (*digests)[s] = wire::share_digest({rows[s], dim}, (*digests)[s]);
    }
  }
}

void SacPeer::send_bundle(std::size_t dest_pos, SacShareMsg msg,
                          bool resend) {
  RoundState& st = *round_;
  const robust::AttackSpec* atk =
      opts_.byzantine ? opts_.byzantine->spec(id_) : nullptr;
  float offset = 0.0f;
  if (atk != nullptr) {
    if (atk->kind == robust::AttackKind::kInconsistentShares &&
        dest_pos % 2 == 1) {
      // Different-but-plausible shares for every second holder: each
      // bundle still decodes and sums like a real share, but holders now
      // disagree about the sender's split.
      offset = static_cast<float>(atk->magnitude);
    } else if (atk->kind == robust::AttackKind::kEquivocate && resend) {
      // Every retransmission tells a fresh lie.
      ++st.equivocations_sent;
      offset = static_cast<float>(atk->magnitude) *
               static_cast<float>(st.equivocations_sent);
    }
  }
  if (offset != 0.0f) {
    for (auto& [idx, data] : msg.parts) {
      for (float& v : data) v += offset;
    }
  }
  if (opts_.detect_inconsistent_shares) {
    msg.commit = st.my_commit;
    if (offset != 0.0f) {
      // The adversary keeps each bundle self-consistent — it recommits
      // to the perturbed values, so the receiver's direct check passes
      // and only cross-holder digest comparison can expose it.
      for (const auto& [idx, data] : msg.parts) {
        msg.commit[idx] = wire::share_digest(data);
      }
    }
  }
  if (offset != 0.0f) {
    net_.obs()
        .metrics.counter(resend ? "byzantine.equivocations_sent"
                                : "byzantine.inconsistent_bundles_sent")
        .add(1);
  }
  const net::WireSize wire = wire::share_wire(
      msg.parts.size(), st.share_bytes, st.model.size(), msg.commit.size());
  net_.send(id_, st.group[dest_pos], channel_ + "/share", std::move(msg),
            wire);
}

bool SacPeer::check_share_consistency(const SacShareMsg& msg) {
  if (!opts_.detect_inconsistent_shares) return true;
  RoundState& st = *round_;
  const std::size_t from = msg.from_pos;
  bool bad = false;
  std::uint64_t digest = 0;
  if (msg.commit.size() == st.n) {
    for (const auto& [idx, data] : msg.parts) {
      if (idx >= st.n || msg.commit[idx] != wire::share_digest(data)) {
        bad = true;  // data disagrees with its own commitment
      }
    }
    digest = wire::commit_digest(msg.commit);
    if (st.seen_digest[from] == 0) {
      st.seen_digest[from] = digest;
    } else if (st.seen_digest[from] != digest) {
      bad = true;  // the commitment changed between sends: equivocation
    }
  } else {
    bad = true;  // detection is on: a full commitment is mandatory
  }
  if (bad && st.peer_bad[from] == 0) {
    st.peer_bad[from] = 1;
    obs::Observability& o = net_.obs();
    o.metrics.counter("byzantine.share_check_failed").add(1);
    if (o.trace.category_enabled("chaos")) {
      o.trace.instant("chaos", "byzantine.share_check_failed", id_,
                      {{"channel", channel_},
                       {"round", st.round},
                       {"pos", from}});
    }
    // Escalate to the leader right away — a flagged sender must not
    // have to wait for the share phase to settle to be attributed.
    if (!is_leader()) send_commit_echo();
  }
  if (is_leader()) {
    std::vector<std::size_t> newly;
    if (digest != 0 && note_digest(from, digest)) newly.push_back(from);
    if (bad && note_bad(from)) newly.push_back(from);
    report_suspects(std::move(newly));
  }
  return !bad;
}

void SacPeer::send_commit_echo() {
  RoundState& st = *round_;
  if (st.my_pos == st.leader_pos) return;
  SacCommitEchoMsg echo;
  echo.round = st.round;
  echo.from_pos = static_cast<std::uint32_t>(st.my_pos);
  echo.digests = st.seen_digest;
  echo.bad = st.peer_bad;
  net_.send(id_, st.group[st.leader_pos], channel_ + "/echo",
            std::move(echo), wire::echo_wire(st.n));
}

void SacPeer::handle_commit_echo(const SacCommitEchoMsg& msg) {
  RoundState& st = *round_;
  if (!opts_.detect_inconsistent_shares || !is_leader()) return;
  if (msg.from_pos >= st.n) return;
  const std::size_t upto =
      std::min(static_cast<std::size_t>(st.n),
               std::min(msg.digests.size(), msg.bad.size()));
  std::vector<std::size_t> newly;
  for (std::size_t pos = 0; pos < upto; ++pos) {
    if (pos == msg.from_pos) continue;  // self-reports carry no weight
    if (msg.digests[pos] != 0 && note_digest(pos, msg.digests[pos])) {
      newly.push_back(pos);
    }
    if (msg.bad[pos] != 0 && note_bad(pos)) newly.push_back(pos);
  }
  report_suspects(std::move(newly));
}

bool SacPeer::note_digest(std::size_t pos, std::uint64_t digest) {
  RoundState& st = *round_;
  auto& seen = st.digest_sets[pos];
  seen.insert(digest);
  // One digest is consistent; two distinct ones prove the sender told
  // different holders different stories.
  if (seen.size() < 2) return false;
  return st.byzantine_suspects.insert(pos).second;
}

bool SacPeer::note_bad(std::size_t pos) {
  RoundState& st = *round_;
  st.pos_bad[pos] = 1;
  return st.byzantine_suspects.insert(pos).second;
}

void SacPeer::report_suspects(std::vector<std::size_t> newly) {
  if (newly.empty()) return;
  RoundState& st = *round_;
  obs::Observability& o = net_.obs();
  o.metrics.counter("byzantine.suspected")
      .add(static_cast<std::uint64_t>(newly.size()));
  if (o.trace.category_enabled("chaos")) {
    for (std::size_t pos : newly) {
      o.trace.instant("chaos", "byzantine.suspect", id_,
                      {{"channel", channel_},
                       {"round", st.round},
                       {"pos", pos},
                       {"peer", st.group[pos]}});
    }
  }
  if (on_byzantine) on_byzantine(st.round, newly);
}

void SacPeer::contribute(std::size_t from_pos, std::size_t idx,
                         const Vector& share) {
  RoundState& st = *round_;
  if (idx >= st.n) return;
  // A share whose dimension disagrees with what this index already
  // accumulated is damaged (or from a mismatched config): ignore it
  // rather than corrupt the running subtotal.
  auto ait = st.acc.find(idx);
  if (ait != st.acc.end() && ait->second.size() != share.size()) return;
  st.got_share_from[from_pos] = true;
  // try_emplace builds the per-index state only when the index is new.
  std::vector<bool>& seen =
      st.contributed.try_emplace(idx, st.n, false).first->second;
  if (seen[from_pos]) return;  // duplicate
  seen[from_pos] = true;
  if (ait == st.acc.end()) ait = st.acc.try_emplace(idx, share.size()).first;
  accumulate(ait->second, share);
  const bool complete =
      std::all_of(seen.begin(), seen.end(), [](bool b) { return b; });
  if (complete) {
    st.subtotal[idx] = to_vector(ait->second);
  }
}

void SacPeer::maybe_finish_share_phase() {
  RoundState& st = *round_;
  if (st.share_phase_done) return;
  // Runs for every bundle received: walk the held indices in place.
  const bool all_held = all_replica_share_indices(
      st.my_pos, st.n, st.k,
      [&st](std::size_t s) { return st.subtotal.count(s) > 0; });
  if (!all_held) return;
  st.share_phase_done = true;
  share_timer_.cancel();
  if (opts_.detect_inconsistent_shares && st.my_pos != st.leader_pos &&
      !st.echo_sent) {
    // The settled share phase is the holder's full testimony: one echo
    // per member per round in the fault-free case.
    st.echo_sent = true;
    send_commit_echo();
  }
  obs::Observability& o = net_.obs();
  if (o.trace.category_enabled("agg")) {
    o.trace.instant("agg", "sac.subtotal_phase", id_,
                    {{"channel", channel_}, {"round", st.round}});
  }
  if (st.share_span != obs::kNoSpan) {
    // The closer is the link span that delivered the final share (unless
    // we finished synchronously inside begin_round, where current() is
    // the share span itself).
    obs::SpanId closer = o.spans.current();
    if (closer == st.share_span) closer = obs::kNoSpan;
    o.spans.close(st.share_span, closer);
  }
  emit_subtotals();
}

void SacPeer::emit_subtotals() {
  RoundState& st = *round_;
  const std::size_t n = st.n;
  obs::SpanRecorder& sr = net_.obs().spans;
  if (opts_.broadcast_subtotals) {
    // Alg. 2 line 7: broadcast the primary subtotal to every other peer.
    // Every peer waits for all n subtotals; the wait span is closed by
    // the link that delivers the last one (maybe_complete).
    if (sr.enabled()) {
      st.subtotal_span = sr.open(obs::SpanKind::kSacSubtotal,
                                 channel_ + "/subtotal_wait", id_, st.round);
    }
    obs::SpanStackScope wait_scope(sr, st.subtotal_span);
    const Vector& mine = st.subtotal.at(st.my_pos);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == st.my_pos) continue;
      SacSubtotalMsg msg{st.round, static_cast<std::uint32_t>(st.my_pos),
                         mine};
      net_.send(id_, st.group[j], channel_ + "/subtotal", std::move(msg),
                wire::subtotal_wire(st.share_bytes, mine.size()));
    }
    leader_collect(st.my_pos, mine);
    return;
  }
  if (is_leader()) {
    if (sr.enabled()) {
      st.subtotal_span = sr.open(obs::SpanKind::kSacSubtotal,
                                 channel_ + "/subtotal_wait", id_, st.round);
    }
    obs::SpanStackScope wait_scope(sr, st.subtotal_span);
    for (const auto& [idx, value] : st.subtotal) leader_collect(idx, value);
    subtotal_timer_.arm(opts_.subtotal_timeout);
    return;
  }
  // Alg. 4 lines 14-16: only peers whose primary subtotal falls outside
  // the leader's held range upload it.
  const std::size_t dist = (st.my_pos + n - st.leader_pos) % n;
  if (dist > n - st.k) {
    SacSubtotalMsg msg{st.round, static_cast<std::uint32_t>(st.my_pos),
                       st.subtotal.at(st.my_pos)};
    const std::size_t dim = msg.value.size();
    net_.send(id_, st.group[st.leader_pos], channel_ + "/subtotal",
              std::move(msg), wire::subtotal_wire(st.share_bytes, dim));
  }
}

void SacPeer::handle_subtotal(const SacSubtotalMsg& msg) {
  RoundState& st = *round_;
  if (msg.idx >= st.n) return;
  if (!opts_.broadcast_subtotals && !is_leader()) return;
  leader_collect(msg.idx, msg.value);
}

void SacPeer::handle_request(const SacSubtotalReq& msg) {
  RoundState& st = *round_;
  if (msg.idx >= st.n || msg.reply_to_pos >= st.n) return;
  auto it = st.subtotal.find(msg.idx);
  if (it == st.subtotal.end()) return;  // not (yet) available here
  SacSubtotalMsg reply{st.round, msg.idx, it->second};
  const std::size_t dim = reply.value.size();
  net_.send(id_, st.group[msg.reply_to_pos], channel_ + "/subtotal",
            std::move(reply), wire::subtotal_wire(st.share_bytes, dim));
}

void SacPeer::leader_collect(std::size_t idx, const Vector& value) {
  RoundState& st = *round_;
  // Reject a subtotal whose dimension disagrees with the ones already
  // collected (damaged or mismatched-config message).
  if (!st.collected.empty() &&
      st.collected.begin()->second.size() != value.size()) {
    return;
  }
  st.collected.emplace(idx, value);
  maybe_complete();
}

void SacPeer::maybe_complete() {
  RoundState& st = *round_;
  if (st.completed || st.collected.size() < st.n) return;
  st.completed = true;
  share_timer_.cancel();
  subtotal_timer_.cancel();
  obs::Observability& o = net_.obs();
  if (st.subtotal_span != obs::kNoSpan) {
    // Closed by the link that delivered the final subtotal (or nothing,
    // when the wait resolved synchronously at open).
    obs::SpanId closer = o.spans.current();
    if (closer == st.subtotal_span) closer = obs::kNoSpan;
    o.spans.close(st.subtotal_span, closer);
  }
  o.metrics.counter("sac.rounds_completed").add(1);
  if (o.trace.category_enabled("agg")) {
    o.trace.instant("agg", "sac.reveal", id_,
                    {{"channel", channel_}, {"round", st.round}});
  }
  std::vector<double> total(st.collected.begin()->second.size(), 0.0);
  for (const auto& [idx, value] : st.collected) accumulate(total, value);
  const Vector avg = to_vector(total, static_cast<double>(st.n));
  if (on_complete) on_complete(st.round, avg);
}

void SacPeer::on_share_timer() {
  if (!round_ || round_->share_phase_done || round_->completed) return;
  RoundState& st = *round_;
  obs::Observability& o = net_.obs();
  ++st.share_retries;
  if (st.share_retries > opts_.share_retry_limit) {
    // Retry budget exhausted. The leader reports the positions that never
    // contributed anything so the round controller can restart without
    // them; followers go quiet and wait to be superseded.
    if (is_leader()) {
      std::vector<std::size_t> missing;
      for (std::size_t p = 0; p < st.n; ++p) {
        if (!st.got_share_from[p]) missing.push_back(p);
      }
      P2PFL_DEBUG() << channel_ << " leader " << id_ << ": share phase timed"
                    << " out, " << missing.size() << " silent peers";
      o.metrics.counter("sac.share_timeouts").add(1);
      if (on_share_timeout) on_share_timeout(st.round, missing);
    } else {
      o.metrics.counter("sac.share_retry_exhausted").add(1);
      if (opts_.detect_inconsistent_shares && !st.echo_sent) {
        // A share phase that never settles still owes the leader its
        // testimony — this is exactly the case where a Byzantine sender
        // stalled us by shipping bundles that failed their commitment.
        st.echo_sent = true;
        send_commit_echo();
      }
    }
    return;
  }
  // Ask every position whose shares for our held indices are still
  // missing to retransmit; senders regenerate the same shares, and
  // contribute() drops duplicates, so this is loss-safe.
  std::vector<bool> want(st.n, false);
  all_replica_share_indices(st.my_pos, st.n, st.k, [&](std::size_t s) {
    if (st.subtotal.count(s) > 0) return true;
    auto it = st.contributed.find(s);
    for (std::size_t p = 0; p < st.n; ++p) {
      if (p == st.my_pos) continue;
      if (it == st.contributed.end() || !it->second[p]) want[p] = true;
    }
    return true;
  });
  std::size_t requested = 0;
  {
    // Timer context has an empty span stack; parent the burst explicitly
    // onto the share phase it is trying to finish.
    obs::ScopedSpan retry_span(o.spans, obs::SpanKind::kRetry,
                               channel_ + "/share_retry", id_, st.round,
                               st.share_span);
    for (std::size_t p = 0; p < st.n; ++p) {
      if (!want[p]) continue;
      SacShareReq req{st.round, static_cast<std::uint32_t>(st.my_pos)};
      net_.send(id_, st.group[p], channel_ + "/share_req", req,
                wire::kShareReqWire);
      ++requested;
    }
  }
  if (requested > 0) {
    o.metrics.counter("sac.share_retries").add(requested);
    if (o.trace.category_enabled("agg")) {
      o.trace.instant("agg", "sac.share_retry", id_,
                      {{"channel", channel_},
                       {"round", st.round},
                       {"requests", requested},
                       {"attempt", st.share_retries}});
    }
  }
  share_timer_.arm(backoff(opts_.share_timeout, st.share_retries));
}

void SacPeer::on_subtotal_timer() {
  if (!round_ || round_->completed) return;
  request_missing_subtotals();
}

void SacPeer::request_missing_subtotals() {
  RoundState& st = *round_;
  // Alg. 4 recovery burst, fired from a timer (empty span stack): parent
  // explicitly onto the subtotal wait it is trying to resolve.
  obs::ScopedSpan recovery_span(net_.obs().spans,
                                obs::SpanKind::kRecovery,
                                channel_ + "/recovery", id_, st.round,
                                st.subtotal_span);
  bool any_pending = false;
  for (std::size_t idx = 0; idx < st.n; ++idx) {
    if (st.collected.count(idx) > 0) continue;
    auto holders = subtotal_holders(idx, st.n, st.k);
    // We never need to ask ourselves: anything we held is collected.
    holders.erase(std::remove(holders.begin(), holders.end(), st.my_pos),
                  holders.end());
    std::size_t& attempt = st.recovery_attempts[idx];
    if (holders.empty() ||
        attempt >= holders.size() * kRecoveryPasses) {
      P2PFL_WARN() << channel_ << " round " << st.round << ": subtotal "
                   << idx << " unrecoverable";
      net_.obs().metrics.counter("sac.unrecoverable").add(1);
      if (on_unrecoverable) on_unrecoverable(st.round);
      return;
    }
    // Cycle through the replica holders, several passes: a holder that
    // was merely behind (or whose reply was lost) answers on a later one.
    const std::size_t target = holders[attempt % holders.size()];
    obs::Observability& o = net_.obs();
    o.metrics.counter("sac.recovery_requests").add(1);
    if (o.trace.category_enabled("agg")) {
      o.trace.instant("agg", "sac.recovery_request", id_,
                      {{"channel", channel_},
                       {"round", st.round},
                       {"subtotal", idx}});
    }
    SacSubtotalReq req{st.round, static_cast<std::uint32_t>(idx),
                       static_cast<std::uint32_t>(st.my_pos)};
    net_.send(id_, st.group[target], channel_ + "/request", req,
              wire::kSubtotalReqWire);
    ++attempt;
    any_pending = true;
  }
  if (any_pending) {
    ++st.recovery_rounds;
    subtotal_timer_.arm(backoff(opts_.subtotal_timeout, st.recovery_rounds));
  }
}

}  // namespace p2pfl::secagg
