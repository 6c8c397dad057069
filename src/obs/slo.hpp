// Declarative SLO rule engine over the RoundSample time-series.
//
// Rules are data, not code: a SloRule names a sample field and a
// predicate family (static threshold, rolling EWMA drift, rolling
// window-quantile drift, convergence stall, byte-budget-vs-closed-form
// tolerance). The engine evaluates every rule against each sample as
// the watchdog appends it, keeps per-rule rolling state, and reports
// breaches. Evaluation is pure arithmetic over deterministic samples,
// so two same-seed runs produce identical breach streams — SLO output
// is covered by the same golden-determinism argument as metrics and
// traces.
//
// On breach the engine emits typed `slo.*` counters and an instant
// trace event (category "slo"); callers that keep a SpanRecorder can
// additionally capture an alert post-mortem (critical path + recent
// spans) via make_slo_alert().
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/timeseries.hpp"

namespace p2pfl::obs {

class Observability;

/// RoundSample fields a rule can observe.
enum class SloField : std::uint8_t {
  kLatencyMs,
  kWireBytes,
  kPayloadBytes,
  kRetries,
  kDrops,
  kAborts,
  kCrashes,
  kEvictions,
  kStrikes,
  kLoss,
  kAccuracy,
};

const char* slo_field_name(SloField f);

/// Value of `f` in `s` as a double; loss/accuracy return their sentinel
/// (< 0) when the round was not evaluated — rules skip those samples.
double slo_field(const RoundSample& s, SloField f);

enum class SloRuleKind : std::uint8_t {
  /// value vs fixed limit.
  kThreshold,
  /// value vs factor × EWMA of prior samples (drift detector). The
  /// EWMA warms up for `warmup` samples before the rule can fire.
  kEwmaDrift,
  /// value vs factor × rolling-window quantile of prior samples.
  kQuantileDrift,
  /// loss has not improved by at least `min_delta` over the best seen
  /// in the last `window` evaluated samples (convergence stall).
  kConvergenceStall,
  /// payload_bytes vs (1 + tolerance) × expected_payload_bytes — the
  /// Eq. (4)/(5) closed-form byte budget. Skips samples where the
  /// closed form was not computed.
  kByteBudget,
};

struct SloRule {
  std::string name;          ///< stable id; metric suffix `slo.breach.<name>`
  SloRuleKind kind = SloRuleKind::kThreshold;
  SloField field = SloField::kLatencyMs;
  /// true: breach when value > bound; false: breach when value < bound.
  bool breach_when_above = true;
  /// kThreshold: the bound. Drift kinds: a floor on the computed bound
  /// (max(factor × baseline, limit)), so an all-zero baseline (e.g. no
  /// retries yet) cannot make the first nonzero sample a breach.
  double limit = 0.0;
  double factor = 2.0;       ///< kEwmaDrift / kQuantileDrift multiplier
  double alpha = 0.2;        ///< kEwmaDrift smoothing
  double quantile = 0.5;     ///< kQuantileDrift reference quantile
  std::size_t window = 8;    ///< rolling window / stall horizon
  std::size_t warmup = 3;    ///< samples consumed before rule may fire
  double min_delta = 1e-3;   ///< kConvergenceStall required improvement
  double tolerance = 0.10;   ///< kByteBudget slack over the closed form
  /// Evaluate only on committed rounds (e.g. byte budget: an aborted
  /// round legitimately moves fewer bytes than the closed form).
  bool committed_only = false;
};

struct SloBreach {
  std::string rule;
  std::uint64_t round = 0;
  double value = 0.0;  ///< observed field value
  double bound = 0.0;  ///< bound it crossed
  std::string detail;  ///< human-readable one-liner
};

/// Final verdict of a watched run: per-rule evaluation/breach counts
/// plus the breach log.
struct SloReport {
  struct RuleStats {
    std::string rule;
    std::uint64_t evaluated = 0;
    std::uint64_t breaches = 0;
    std::uint64_t first_breach_round = 0;  ///< valid when breaches > 0
  };
  std::vector<RuleStats> rules;
  std::vector<SloBreach> breaches;
  std::uint64_t samples = 0;

  bool healthy() const { return breaches.empty(); }
  std::string table() const;
  std::string json() const;
};

/// Breach with the breaching round's flight-recorder evidence attached.
struct SloAlert {
  SloBreach breach;
  CriticalPath critical_path;  ///< found=false when spans were off/evicted
  std::string spans_jsonl;     ///< the round's spans, JSONL
  std::string table;           ///< rendered post-mortem table
};

/// Build the post-mortem for a breach from the span flight recorder.
SloAlert make_slo_alert(const SpanRecorder& rec, const SloBreach& breach);

/// Render one alert as a human-readable block (breach line + critical
/// path attribution table).
std::string slo_alert_text(const SloAlert& alert);

class SloEngine {
 public:
  explicit SloEngine(std::vector<SloRule> rules);

  /// Evaluate every rule against `s`, in rule order. Returns breaches
  /// from this sample (usually empty). When `o` is non-null, bumps
  /// `slo.evaluations` / `slo.breaches` / `slo.breach.<rule>` counters
  /// and emits an instant trace event per breach (category "slo").
  std::vector<SloBreach> evaluate(const RoundSample& s, Observability* o);

  /// Pre-create the engine's `slo.*` counters in `o`'s registry so
  /// metric dumps are shape-stable whether or not anything breached.
  void register_metrics(Observability& o) const;

  const std::vector<SloRule>& rules() const { return rules_; }
  SloReport report() const;

 private:
  struct RuleState {
    /// kEwmaDrift: rolling mean. kConvergenceStall: best loss seen.
    double baseline = 0.0;
    bool baseline_init = false;
    std::deque<double> window;   // kQuantileDrift rolling values
    std::size_t seen = 0;        // applicable samples consumed (incl. warmup)
    std::uint64_t stalled = 0;   // kConvergenceStall rounds w/o improvement
    std::uint64_t evaluated = 0; // samples actually judged
    std::uint64_t breaches = 0;
    std::uint64_t first_breach_round = 0;
  };

  /// Judge one rule; returns true on breach and fills value/bound/detail.
  bool judge(const SloRule& r, RuleState& st, const RoundSample& s,
             double& value, double& bound, std::string& detail);

  std::vector<SloRule> rules_;
  std::vector<RuleState> states_;
  std::vector<SloBreach> breaches_;
  std::uint64_t samples_ = 0;
};

/// The default rule set used by `p2pflctl watch` and the chaos soak:
/// round-latency threshold, latency EWMA drift, abort threshold,
/// retry-storm quantile drift, byte budget vs Eq. (4)/(5), and a
/// convergence stall guard (only meaningful when loss is evaluated).
std::vector<SloRule> default_rules(double max_latency_ms);

}  // namespace p2pfl::obs
