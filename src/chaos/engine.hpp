// Executor for ChaosPlans over the transport seam.
//
// The engine turns a declarative plan into transport timer events: every
// crash, restart, partition, heal and fault window becomes one scheduled
// callback, every injected fault is counted in the metrics registry
// (`chaos.*`) and emitted to the trace stream (category "chaos"), and
// every stochastic draw (churn timings) comes from an RNG forked off the
// transport's root. On the deterministic simulator those timers are
// discrete events on the virtual clock, so two runs with the same
// (seed, plan) produce byte-identical trace streams while different
// seeds diverge; on TCP the same plan fires on the monotonic clock and
// the loop thread, so one plan exercises both backends.
//
// Transport-native faults (connection resets, half-open stall windows,
// slow-writer throttling, reconnect storms) write the Network's
// net::LinkTable, which both transports honor at the frame boundary;
// on TCP a connection reset tears real sockets down instead.
//
// Crashing a protocol peer usually involves more than silencing its
// links (Raft nodes must stop, timers must be cancelled), so the engine
// delegates the actual crash/restart to caller-supplied hooks; the
// defaults fall back to net.crash()/net.restore().
#pragma once

#include <functional>
#include <set>

#include "chaos/plan.hpp"
#include "net/network.hpp"

namespace p2pfl::chaos {

struct ChaosEngineHooks {
  /// Take a peer down / bring it back. Defaults: net.crash/net.restore.
  std::function<void(PeerId)> crash;
  std::function<void(PeerId)> restart;
  /// Bring a peer back with its persistent state wiped (amnesia
  /// restart). Defaults to `restart` when unset, so plans that request
  /// amnesia still work against systems without durable state.
  std::function<void(PeerId)> restart_amnesia;
};

class ChaosEngine {
 public:
  /// The engine must outlive the simulation run it drives.
  ChaosEngine(net::Network& net, ChaosPlan plan, ChaosEngineHooks hooks = {});

  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;

  /// Schedule every plan event on the transport. Call once; events in
  /// the past (at <= now) fire on the next transport step. CHECK-fails,
  /// naming the kind and the times, when two fault windows, two
  /// partition windows or two throttle windows on one peer overlap (a
  /// missing end is open-ended; fault and partition windows that touch
  /// also overlap).
  void start();

  // --- observation -------------------------------------------------------
  std::size_t faults_injected() const { return faults_injected_; }
  std::size_t crashes() const { return crashes_; }
  std::size_t restarts() const { return restarts_; }
  std::size_t amnesia_restarts() const { return amnesia_restarts_; }
  /// Crash/restart requests that were already satisfied (peer already
  /// down / already up); they no-op instead of re-running hooks.
  std::size_t redundant_faults() const { return redundant_faults_; }
  bool peer_down(PeerId p) const { return down_.count(p) > 0; }
  std::size_t peers_down() const { return down_.size(); }

 private:
  void do_crash(PeerId peer, const char* cause);
  void do_restart(PeerId peer, const char* cause, bool amnesia = false);
  void redundant(const char* op, PeerId peer);
  void schedule_churn_failure(const ChurnSpec& spec, PeerId peer,
                              SimTime at);
  void churn_fail(const ChurnSpec& spec, PeerId peer);
  void trace_fault(const char* name, std::uint32_t tid,
                   obs::TraceArgs args);
  SimDuration exp_draw(SimDuration mean);
  /// schedule_after(at - now), clamped so past events fire immediately.
  void schedule_at(SimTime at, std::function<void()> fn);
  void do_conn_reset(PeerId a, PeerId b, SimDuration sim_outage);
  void storm_tick(const ReconnectStormEvent& e);

  net::Network& net_;
  net::Transport& tr_;
  ChaosPlan plan_;
  ChaosEngineHooks hooks_;
  Rng rng_;
  std::set<PeerId> down_;
  net::LinkFaults saved_defaults_;
  std::size_t faults_injected_ = 0;
  std::size_t crashes_ = 0;
  std::size_t restarts_ = 0;
  std::size_t amnesia_restarts_ = 0;
  std::size_t redundant_faults_ = 0;
  bool started_ = false;
};

}  // namespace p2pfl::chaos
