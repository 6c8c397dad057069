// RoundWatchdog: per-round health sampling + SLO evaluation.
//
// The watchdog brackets every FedAvg round: `round_started` snapshots
// the network byte counters and the protocol counters it attributes per
// round (retries, drops, churn, strikes...), and `round_finished` turns
// the deltas into one obs::RoundSample — commit latency (censored to
// the observation window for rounds that never committed), critical-path
// phase attribution when spans are recorded, wire/payload bytes against
// the Eq. (4)/(5) closed-form budget — appends it to the RoundSeries and
// runs the SLO engine over it. On breach it captures an alert
// post-mortem from the span flight recorder, the same evidence
// `p2pflctl explain` renders.
//
// The loop that drives the rounds (the chaos soak) calls round_started /
// round_committed / round_finished itself.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/topology.hpp"
#include "net/network.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "sim/simulator.hpp"

namespace p2pfl::core {

struct WatchdogConfig {
  /// SLO rules evaluated per sample (empty = record-only watchdog).
  std::vector<obs::SloRule> rules;
  /// |w| bytes of one model transfer (4 × dim for materialized vectors,
  /// or the modeled CNN size) — the unit of the Eq. (4)/(5) closed form.
  /// 0 = skip the expected-payload computation (byte-budget rules never
  /// fire).
  std::uint64_t model_payload_bytes = 0;
  /// SAC dropout tolerance f (per-subgroup k = n − f) for the Eq. (5)
  /// fault-tolerant form; 0 reduces to Eq. (4).
  std::size_t dropout_tolerance = 0;
};

class RoundWatchdog {
 public:
  RoundWatchdog(sim::Simulator& sim, net::Network& net,
                const Topology& topology, WatchdogConfig cfg);

  /// Open the observation window of `round`. An already-open window is
  /// closed first (as uncommitted) so a superseded round still samples.
  void round_started(std::uint64_t round);
  /// Mark the open round committed at the current virtual time.
  void round_committed(std::uint64_t round, std::size_t contributors,
                       std::size_t groups_used);
  /// Close the window: build the sample, append, evaluate SLOs.
  /// Negative loss/accuracy mean "not evaluated this round".
  void round_finished(std::uint64_t round, double loss = -1.0,
                      double accuracy = -1.0);

  // --- results -----------------------------------------------------------
  const obs::RoundSeries& series() const { return series_; }
  obs::SloReport report() const { return engine_.report(); }
  const std::vector<obs::SloAlert>& alerts() const { return alerts_; }
  bool healthy() const { return breaches_total_ == 0; }

  /// Eq. (4)/(5) payload bytes of one fault-free round at this topology
  /// (0 when model_payload_bytes is unset).
  double expected_payload_bytes() const { return expected_payload_bytes_; }

  /// Fired after each sample is appended and judged (live table
  /// rendering in `p2pflctl watch`).
  std::function<void(const obs::RoundSample&,
                     const std::vector<obs::SloBreach>&)>
      on_sample;

 private:
  /// Counters attributed per round, snapshotted at round start.
  struct Baseline {
    std::uint64_t wire_bytes = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t retries = 0;
    std::uint64_t drops = 0;
    std::uint64_t aborts = 0;
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t rejoins = 0;
    std::uint64_t strikes = 0;
  };
  Baseline snapshot() const;

  sim::Simulator& sim_;
  net::Network& net_;
  WatchdogConfig cfg_;
  obs::RoundSeries series_;
  obs::SloEngine engine_;
  std::vector<obs::SloAlert> alerts_;
  std::uint64_t breaches_total_ = 0;
  double expected_payload_bytes_ = 0.0;

  // --- open observation window -------------------------------------------
  bool open_ = false;
  std::uint64_t open_round_ = 0;
  SimTime start_ = 0;
  Baseline base_;
  bool committed_ = false;
  SimTime commit_time_ = 0;
  std::size_t contributors_ = 0;
  std::size_t groups_used_ = 0;
};

}  // namespace p2pfl::core
