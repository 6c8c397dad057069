#include "core/watchdog.hpp"

#include <algorithm>

#include "analysis/cost_model.hpp"

namespace p2pfl::core {

namespace {
/// Samples the round series retains.
constexpr std::size_t kSeriesCapacity = 4096;
/// Alert post-mortems retained (a sustained incident breaches every
/// round; the first few carry all the signal).
constexpr std::size_t kMaxAlerts = 16;
}  // namespace

RoundWatchdog::RoundWatchdog(sim::Simulator& sim, net::Network& net,
                             const Topology& topology, WatchdogConfig cfg)
    : sim_(sim),
      net_(net),
      cfg_(std::move(cfg)),
      series_(kSeriesCapacity),
      engine_(cfg_.rules) {
  // Pre-create the slo.* counters so metric dumps have the same shape
  // whether or not any rule ever breached.
  engine_.register_metrics(sim_.obs());
  if (cfg_.model_payload_bytes > 0) {
    const std::vector<std::size_t> sizes = topology.sizes();
    const std::size_t n =
        *std::max_element(sizes.begin(), sizes.end());
    const std::size_t k =
        cfg_.dropout_tolerance < n ? n - cfg_.dropout_tolerance : 1;
    expected_payload_bytes_ =
        analysis::two_layer_ft_cost(sizes, n, k) *
        static_cast<double>(cfg_.model_payload_bytes);
  }
}

RoundWatchdog::Baseline RoundWatchdog::snapshot() const {
  const obs::MetricsRegistry& m = sim_.obs().metrics;
  Baseline b;
  b.wire_bytes = net_.stats().sent.bytes;
  b.payload_bytes = net_.stats().sent.payload;
  b.retries = m.counter_value("sac.share_retries") +
              m.counter_value("sac.share_resends") +
              m.counter_value("agg.upload_retries");
  for (const auto& [reason, n] : net_.stats().dropped_by_reason) {
    b.drops += n;
  }
  b.aborts = m.counter_value("agg.rounds_aborted") +
             m.counter_value("agg.rounds_failed");
  b.crashes = m.counter_value("chaos.crash");
  b.restarts = m.counter_value("chaos.restart") +
               m.counter_value("chaos.amnesia_restart");
  b.evictions = m.counter_value("membership.evicted");
  b.rejoins = m.counter_value("membership.rejoined");
  b.strikes = m.counter_value("byzantine.strikes");
  return b;
}

void RoundWatchdog::round_started(std::uint64_t round) {
  if (open_) round_finished(open_round_);  // superseded, close uncommitted
  open_ = true;
  open_round_ = round;
  start_ = sim_.now();
  base_ = snapshot();
  committed_ = false;
  commit_time_ = 0;
  contributors_ = 0;
  groups_used_ = 0;
}

void RoundWatchdog::round_committed(std::uint64_t round,
                                    std::size_t contributors,
                                    std::size_t groups_used) {
  if (!open_ || open_round_ != round) return;
  committed_ = true;
  commit_time_ = sim_.now();
  contributors_ = contributors;
  groups_used_ = groups_used;
}

void RoundWatchdog::round_finished(std::uint64_t round, double loss,
                                   double accuracy) {
  if (!open_ || open_round_ != round) return;
  open_ = false;

  obs::RoundSample s;
  s.round = round;
  s.start = start_;
  s.committed = committed_;
  // Committed rounds measure commit latency; rounds that never produced
  // a global model are right-censored at the close of the observation
  // window (abort time, or the full round slot under manual drive) — a
  // crash window shows up as latency, not as a gap in the series.
  s.end = committed_ ? commit_time_ : sim_.now();
  s.latency_ms = to_ms(s.end - s.start);
  s.contributors = contributors_;
  s.groups_used = groups_used_;

  const obs::SpanRecorder& spans = sim_.obs().spans;
  if (committed_ && spans.enabled()) {
    obs::CriticalPath cp = obs::extract_critical_path(spans, round);
    if (cp.found) s.phases = std::move(cp.phase_totals);
  }

  const Baseline now = snapshot();
  s.wire_bytes = now.wire_bytes - base_.wire_bytes;
  s.payload_bytes = now.payload_bytes - base_.payload_bytes;
  s.expected_payload_bytes = expected_payload_bytes_;
  s.retries = now.retries - base_.retries;
  s.drops = now.drops - base_.drops;
  s.aborts = now.aborts - base_.aborts;
  s.crashes = now.crashes - base_.crashes;
  s.restarts = now.restarts - base_.restarts;
  s.evictions = now.evictions - base_.evictions;
  s.rejoins = now.rejoins - base_.rejoins;
  s.strikes = now.strikes - base_.strikes;
  s.loss = loss;
  s.accuracy = accuracy;

  const std::vector<obs::SloBreach> fired =
      engine_.evaluate(s, &sim_.obs());
  breaches_total_ += fired.size();
  for (const obs::SloBreach& b : fired) {
    if (alerts_.size() >= kMaxAlerts) break;
    alerts_.push_back(obs::make_slo_alert(spans, b));
  }
  series_.append(std::move(s));
  if (on_sample) on_sample(series_.back(), fired);
}

}  // namespace p2pfl::core
