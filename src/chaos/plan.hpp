// Declarative fault plans for deterministic chaos runs.
//
// A ChaosPlan is a script of faults — crashes, restarts, crash/restart
// churn, partition windows, network-imperfection windows and transport
// faults — expressed in simulated time. The ChaosEngine (engine.hpp)
// executes a plan on the Network's transport timers and draws every
// stochastic choice (churn inter-failure times, victim selection) from a
// deterministic RNG fork, so a chaos run is a pure function of
// (seed, plan): replayable, diffable, and bisectable. The Fig. 10-12
// recovery benches and the soak tests inject their faults exclusively
// through plans instead of bespoke bench code.
#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "net/network.hpp"

namespace p2pfl::chaos {

/// Crash one peer at an absolute simulated time.
struct CrashEvent {
  SimTime at = 0;
  PeerId peer = kNoPeer;
};

/// Restart (restore) one peer at an absolute simulated time. With
/// `amnesia` the peer comes back with its persistent state wiped (the
/// engine dispatches to the restart_amnesia hook) — the paper's
/// worst-case rejoin: a machine replaced rather than rebooted.
struct RestartEvent {
  SimTime at = 0;
  PeerId peer = kNoPeer;
  bool amnesia = false;
};

/// Split the network into groups at `at`; heal at `heal_at` (0 = never).
/// Peers listed in no group form one implicit extra group (see
/// net::Network::partition).
struct PartitionEvent {
  SimTime at = 0;
  SimTime heal_at = 0;
  std::vector<std::vector<PeerId>> groups;
};

/// Override the network's default stochastic faults during
/// [at, clear_at); the previous defaults are restored afterwards.
struct FaultWindowEvent {
  SimTime at = 0;
  SimTime clear_at = 0;  // 0 = never restore
  net::LinkFaults faults;
};

/// Continuous crash/restart churn over [start, end): each peer in scope
/// fails after Exp(mttf) uptime and recovers after Exp(mttr) downtime,
/// with all draws from the engine's deterministic RNG.
struct ChurnSpec {
  SimTime start = 0;
  SimTime end = 0;
  SimDuration mttf = 10 * kSecond;
  SimDuration mttr = 2 * kSecond;
  std::vector<PeerId> peers;
  /// Liveness guard: a failure draw that would exceed this many
  /// simultaneously-down peers is postponed by one MTTR.
  std::size_t max_concurrent_down = static_cast<std::size_t>(-1);
  /// Probability that a churn restart is an amnesia restart (persistent
  /// state wiped). The draw happens only when > 0, so plans without
  /// amnesia keep their exact historical RNG sequences.
  double amnesia_prob = 0.0;
};

/// Forcibly reset the connection between two peers at `at`, as if the
/// kernel sent RST. On TCP the transport tears the sockets down and
/// reconnects with (jittered) backoff; the deterministic simulator has
/// no connections, so the engine models the same outage as a
/// bidirectional stall of `sim_outage`.
struct ConnResetEvent {
  SimTime at = 0;
  PeerId a = kNoPeer;
  PeerId b = kNoPeer;
  /// Modeled reconnect outage on the sim path (≈ min backoff + RTT).
  SimDuration sim_outage = 30 * kMillisecond;
};

/// Half-open stall: frames from->to are silently held during
/// [at, until) — the sender perceives an alive peer that never answers.
/// `bidirectional` stalls both directions (a fully wedged link).
struct StallWindowEvent {
  SimTime at = 0;
  SimTime until = 0;
  PeerId from = kNoPeer;
  PeerId to = kNoPeer;
  bool bidirectional = false;
};

/// Clamp one peer's egress to `bytes_per_sec` during [at, until) — the
/// slow-writer scenario (an overloaded or badly-connected peer).
struct ThrottleWindowEvent {
  SimTime at = 0;
  SimTime until = 0;
  PeerId peer = kNoPeer;
  std::uint64_t bytes_per_sec = 0;
};

/// Reconnect storm: every `period` during [at, until), reset the
/// connections between consecutive `pairs` entries (a flapping switch
/// forcing the mesh through its reconnect path over and over).
struct ReconnectStormEvent {
  SimTime at = 0;
  SimTime until = 0;
  SimDuration period = 100 * kMillisecond;
  /// Flattened pair list: {a0,b0, a1,b1, ...}.
  std::vector<PeerId> pairs;
  SimDuration sim_outage = 30 * kMillisecond;
};

class ChaosPlan {
 public:
  ChaosPlan& crash_at(SimTime t, PeerId peer) {
    crashes_.push_back({t, peer});
    return *this;
  }
  ChaosPlan& restart_at(SimTime t, PeerId peer, bool amnesia = false) {
    restarts_.push_back({t, peer, amnesia});
    return *this;
  }
  /// Crash at `t` and restart `downtime` later.
  ChaosPlan& crash_for(SimTime t, PeerId peer, SimDuration downtime,
                       bool amnesia = false) {
    crash_at(t, peer);
    return restart_at(t + downtime, peer, amnesia);
  }
  ChaosPlan& partition_window(SimTime at, SimTime heal_at,
                              std::vector<std::vector<PeerId>> groups) {
    partitions_.push_back({at, heal_at, std::move(groups)});
    return *this;
  }
  ChaosPlan& fault_window(SimTime at, SimTime clear_at,
                          net::LinkFaults faults) {
    fault_windows_.push_back({at, clear_at, faults});
    return *this;
  }
  ChaosPlan& churn(ChurnSpec spec) {
    churns_.push_back(std::move(spec));
    return *this;
  }
  ChaosPlan& conn_reset_at(SimTime t, PeerId a, PeerId b,
                           SimDuration sim_outage = 30 * kMillisecond) {
    conn_resets_.push_back({t, a, b, sim_outage});
    return *this;
  }
  ChaosPlan& stall_window(SimTime at, SimTime until, PeerId from, PeerId to,
                          bool bidirectional = false) {
    stall_windows_.push_back({at, until, from, to, bidirectional});
    return *this;
  }
  ChaosPlan& throttle_window(SimTime at, SimTime until, PeerId peer,
                             std::uint64_t bytes_per_sec) {
    throttle_windows_.push_back({at, until, peer, bytes_per_sec});
    return *this;
  }
  ChaosPlan& reconnect_storm(ReconnectStormEvent e) {
    reconnect_storms_.push_back(std::move(e));
    return *this;
  }

  const std::vector<CrashEvent>& crashes() const { return crashes_; }
  const std::vector<RestartEvent>& restarts() const { return restarts_; }
  const std::vector<PartitionEvent>& partitions() const {
    return partitions_;
  }
  const std::vector<FaultWindowEvent>& fault_windows() const {
    return fault_windows_;
  }
  const std::vector<ChurnSpec>& churns() const { return churns_; }
  const std::vector<ConnResetEvent>& conn_resets() const {
    return conn_resets_;
  }
  const std::vector<StallWindowEvent>& stall_windows() const {
    return stall_windows_;
  }
  const std::vector<ThrottleWindowEvent>& throttle_windows() const {
    return throttle_windows_;
  }
  const std::vector<ReconnectStormEvent>& reconnect_storms() const {
    return reconnect_storms_;
  }

  bool empty() const {
    return crashes_.empty() && restarts_.empty() && partitions_.empty() &&
           fault_windows_.empty() && churns_.empty() &&
           conn_resets_.empty() && stall_windows_.empty() &&
           throttle_windows_.empty() && reconnect_storms_.empty();
  }

 private:
  std::vector<CrashEvent> crashes_;
  std::vector<RestartEvent> restarts_;
  std::vector<PartitionEvent> partitions_;
  std::vector<FaultWindowEvent> fault_windows_;
  std::vector<ChurnSpec> churns_;
  std::vector<ConnResetEvent> conn_resets_;
  std::vector<StallWindowEvent> stall_windows_;
  std::vector<ThrottleWindowEvent> throttle_windows_;
  std::vector<ReconnectStormEvent> reconnect_storms_;
};

}  // namespace p2pfl::chaos
