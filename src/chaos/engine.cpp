#include "chaos/engine.hpp"

#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/log.hpp"

namespace p2pfl::chaos {

namespace {

/// CHECK-fails when two `windows` [at, end) of one kind intersect; an
/// end of 0 never comes. With `touching`, a window opening the instant
/// another closes counts too: events at one instant fire in listing
/// order, so that close may undo that open.
void reject_overlaps(const std::string& kind,
                     const std::vector<std::pair<SimTime, SimTime>>& windows,
                     bool touching) {
  const auto end = [](SimTime t) {
    return t > 0 ? t : std::numeric_limits<SimTime>::max();
  };
  const auto show = [](const std::pair<SimTime, SimTime>& w) {
    return std::string("[") + std::to_string(w.first) + ", " +
           (w.second > 0 ? std::to_string(w.second) : "never") + ") us";
  };
  for (std::size_t i = 0; i < windows.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const auto [a, a_end] = windows[j];
      const auto [b, b_end] = windows[i];
      const bool overlap = touching ? a <= end(b_end) && b <= end(a_end)
                                    : a < end(b_end) && b < end(a_end);
      P2PFL_CHECK_MSG(!overlap, "overlapping " + kind + " windows " +
                                    show(windows[j]) + " and " +
                                    show(windows[i]));
    }
  }
}

}  // namespace

ChaosEngine::ChaosEngine(net::Network& net, ChaosPlan plan,
                         ChaosEngineHooks hooks)
    : net_(net),
      tr_(net.transport()),
      plan_(std::move(plan)),
      hooks_(std::move(hooks)),
      // net.rng() is the transport root — on the sim path the very same
      // object sim_.rng() used to be, so the fork stream (and every
      // golden trace derived from it) is unchanged.
      rng_(net.rng().fork(0x6368'616f'7321ULL /*"chaos!"*/)) {
  if (!hooks_.crash) hooks_.crash = [this](PeerId p) { net_.crash(p); };
  if (!hooks_.restart) hooks_.restart = [this](PeerId p) { net_.restore(p); };
  if (!hooks_.restart_amnesia) hooks_.restart_amnesia = hooks_.restart;
}

void ChaosEngine::schedule_at(SimTime at, std::function<void()> fn) {
  const SimTime now = tr_.now();
  tr_.schedule_after(at > now ? at - now : 0, std::move(fn));
}

SimDuration ChaosEngine::exp_draw(SimDuration mean) {
  P2PFL_CHECK(mean > 0);
  // Inverse-CDF; uniform(0,1) < 1 keeps the log argument positive.
  const double u = rng_.uniform(0.0, 1.0);
  return static_cast<SimDuration>(-static_cast<double>(mean) *
                                  std::log(1.0 - u));
}

void ChaosEngine::trace_fault(const char* name, std::uint32_t tid,
                              obs::TraceArgs args) {
  ++faults_injected_;
  obs::Observability& o = net_.obs();
  o.metrics.counter(std::string("chaos.") + name).add(1);
  if (o.trace.category_enabled("chaos")) {
    o.trace.instant("chaos", std::string("chaos.") + name, tid,
                    std::move(args));
  }
}

void ChaosEngine::redundant(const char* op, PeerId peer) {
  // Double crash / double restart (overlapping plan entries, or a plan
  // restart racing a churn restart): the request is already satisfied.
  // Re-running the hooks would double-fire crash/restart side effects in
  // the system under test, so record the redundancy and do nothing.
  // Deliberately not a fault: faults_injected_ stays untouched.
  ++redundant_faults_;
  obs::Observability& o = net_.obs();
  o.metrics.counter("chaos.redundant").add(1);
  if (o.trace.category_enabled("chaos")) {
    o.trace.instant("chaos", "chaos.redundant", peer, {{"op", op}});
  }
}

void ChaosEngine::do_crash(PeerId peer, const char* cause) {
  if (down_.count(peer) > 0) {
    redundant("crash", peer);
    return;
  }
  down_.insert(peer);
  ++crashes_;
  trace_fault("crash", peer, {{"cause", cause}});
  hooks_.crash(peer);
}

void ChaosEngine::do_restart(PeerId peer, const char* cause, bool amnesia) {
  if (down_.count(peer) == 0) {
    redundant("restart", peer);
    return;
  }
  down_.erase(peer);
  ++restarts_;
  if (amnesia) {
    ++amnesia_restarts_;
    trace_fault("amnesia_restart", peer, {{"cause", cause}});
    hooks_.restart_amnesia(peer);
  } else {
    trace_fault("restart", peer, {{"cause", cause}});
    hooks_.restart(peer);
  }
}

void ChaosEngine::churn_fail(const ChurnSpec& spec, PeerId peer) {
  if (tr_.now() >= spec.end) return;
  if (down_.count(peer) > 0 ||
      down_.size() >= spec.max_concurrent_down) {
    // Postpone: the peer is already down (explicit plan crash) or the
    // concurrency guard is saturated.
    schedule_churn_failure(spec, peer, tr_.now() + exp_draw(spec.mttr));
    return;
  }
  do_crash(peer, "churn");
  const SimTime back_at = tr_.now() + exp_draw(spec.mttr);
  schedule_at(back_at, [this, &spec, peer] {
    // Drawn only when requested so amnesia-free plans keep the exact
    // RNG sequence (and thus trace stream) they had before this knob.
    const bool amnesia =
        spec.amnesia_prob > 0 &&
        rng_.uniform(0.0, 1.0) < spec.amnesia_prob;
    do_restart(peer, "churn", amnesia);
    const SimTime next_fail = tr_.now() + exp_draw(spec.mttf);
    if (next_fail < spec.end) schedule_churn_failure(spec, peer, next_fail);
  });
}

void ChaosEngine::schedule_churn_failure(const ChurnSpec& spec, PeerId peer,
                                         SimTime at) {
  if (at >= spec.end) return;
  schedule_at(at, [this, &spec, peer] { churn_fail(spec, peer); });
}

void ChaosEngine::start() {
  P2PFL_CHECK_MSG(!started_, "ChaosEngine::start called twice");
  // A fault window replaces the default faults, a partition window the
  // partition and a throttle window its peer's rate, so two overlapping
  // windows of one of these kinds cannot both be honoured.
  std::vector<std::pair<SimTime, SimTime>> faults, partitions;
  for (const FaultWindowEvent& e : plan_.fault_windows()) {
    faults.emplace_back(e.at, e.clear_at);
  }
  for (const PartitionEvent& e : plan_.partitions()) {
    partitions.emplace_back(e.at, e.heal_at);
  }
  std::map<PeerId, std::vector<std::pair<SimTime, SimTime>>> throttles;
  for (const ThrottleWindowEvent& e : plan_.throttle_windows()) {
    throttles[e.peer].emplace_back(e.at, e.until);
  }
  reject_overlaps("fault", faults, /*touching=*/true);
  reject_overlaps("partition", partitions, /*touching=*/true);
  for (const auto& [peer, windows] : throttles) {
    reject_overlaps("peer " + std::to_string(peer) + " throttle", windows,
                    /*touching=*/false);
  }
  started_ = true;

  for (const CrashEvent& e : plan_.crashes()) {
    schedule_at(e.at, [this, e] { do_crash(e.peer, "plan"); });
  }
  for (const RestartEvent& e : plan_.restarts()) {
    schedule_at(e.at,
                     [this, e] { do_restart(e.peer, "plan", e.amnesia); });
  }
  for (const PartitionEvent& e : plan_.partitions()) {
    schedule_at(e.at, [this, &e] {
      net_.partition(e.groups);
      trace_fault("partition", 0,
                  {{"groups", static_cast<std::uint64_t>(e.groups.size())}});
    });
    if (e.heal_at > 0) {
      schedule_at(e.heal_at, [this] {
        net_.heal();
        trace_fault("heal", 0, {});
      });
    }
  }
  for (const FaultWindowEvent& e : plan_.fault_windows()) {
    schedule_at(e.at, [this, &e] {
      saved_defaults_ = net_.config().faults;
      net_.set_default_faults(e.faults);
      trace_fault("fault_window", 0,
                  {{"drop", e.faults.drop_prob},
                   {"dup", e.faults.duplicate_prob},
                   {"reorder", e.faults.reorder_prob}});
    });
    if (e.clear_at > 0) {
      schedule_at(e.clear_at, [this] {
        net_.set_default_faults(saved_defaults_);
        trace_fault("fault_window_clear", 0, {});
      });
    }
  }
  for (const ChurnSpec& spec : plan_.churns()) {
    P2PFL_CHECK_MSG(!spec.peers.empty(), "churn spec without peers");
    P2PFL_CHECK(spec.end > spec.start);
    for (PeerId p : spec.peers) {
      schedule_churn_failure(spec, p, spec.start + exp_draw(spec.mttf));
    }
  }

  // Transport-native faults, scheduled after every other event type so
  // plans without them keep their exact event insertion order (and
  // goldens).
  for (const ConnResetEvent& e : plan_.conn_resets()) {
    schedule_at(e.at,
                [this, e] { do_conn_reset(e.a, e.b, e.sim_outage); });
  }
  for (const StallWindowEvent& e : plan_.stall_windows()) {
    P2PFL_CHECK(e.until > e.at);
    schedule_at(e.at, [this, e] {
      if (e.bidirectional) {
        net_.links().stall_pair(e.from, e.to, e.until);
      } else {
        net_.links().stall_link(e.from, e.to, e.until);
      }
      trace_fault("transport.stall", e.from,
                  {{"to", static_cast<std::uint64_t>(e.to)},
                   {"until_us", e.until}});
    });
  }
  for (const ThrottleWindowEvent& e : plan_.throttle_windows()) {
    P2PFL_CHECK(e.until > e.at);
    P2PFL_CHECK(e.bytes_per_sec > 0);
    schedule_at(e.at, [this, e] {
      net_.links().throttle_peer(e.peer, e.bytes_per_sec, e.until);
      trace_fault("transport.throttle", e.peer,
                  {{"bytes_per_sec", e.bytes_per_sec},
                   {"until_us", e.until}});
    });
  }
  for (const ReconnectStormEvent& e : plan_.reconnect_storms()) {
    P2PFL_CHECK_MSG(e.pairs.size() >= 2 && e.pairs.size() % 2 == 0,
                    "reconnect storm needs a flattened pair list");
    P2PFL_CHECK(e.period > 0);
    P2PFL_CHECK(e.until > e.at);
    schedule_at(e.at, [this, &e] { storm_tick(e); });
  }
}

void ChaosEngine::do_conn_reset(PeerId a, PeerId b, SimDuration sim_outage) {
  if (tr_.deterministic()) {
    // The simulator has no connections to tear down; model the reconnect
    // outage as a bidirectional stall of the modeled duration.
    net_.links().stall_pair(a, b, tr_.now() + sim_outage);
  } else {
    tr_.inject_connection_reset(a, b);
  }
  trace_fault("transport.conn_reset", a,
              {{"peer_b", static_cast<std::uint64_t>(b)}});
}

void ChaosEngine::storm_tick(const ReconnectStormEvent& e) {
  if (tr_.now() >= e.until) return;
  for (std::size_t i = 0; i + 1 < e.pairs.size(); i += 2) {
    do_conn_reset(e.pairs[i], e.pairs[i + 1], e.sim_outage);
  }
  schedule_at(tr_.now() + e.period, [this, &e] { storm_tick(e); });
}

}  // namespace p2pfl::chaos
