#include "obs/slo.hpp"

#include <algorithm>
#include <cstdio>

#include "common/check.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"

namespace p2pfl::obs {

namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Short fixed-precision rendering for human-readable tables/details.
std::string fmt_short(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

/// Continuous-rank quantile of an unsorted window (linear interpolation
/// between order statistics, matching Histogram::quantile's convention).
double window_quantile(const std::deque<double>& w, double q) {
  P2PFL_CHECK(!w.empty());
  std::vector<double> sorted(w.begin(), w.end());
  std::sort(sorted.begin(), sorted.end());
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace

const char* slo_field_name(SloField f) {
  switch (f) {
    case SloField::kLatencyMs: return "latency_ms";
    case SloField::kWireBytes: return "wire_bytes";
    case SloField::kPayloadBytes: return "payload_bytes";
    case SloField::kRetries: return "retries";
    case SloField::kDrops: return "drops";
    case SloField::kAborts: return "aborts";
    case SloField::kCrashes: return "crashes";
    case SloField::kEvictions: return "evictions";
    case SloField::kStrikes: return "strikes";
    case SloField::kLoss: return "loss";
    case SloField::kAccuracy: return "accuracy";
  }
  return "?";
}

double slo_field(const RoundSample& s, SloField f) {
  switch (f) {
    case SloField::kLatencyMs: return s.latency_ms;
    case SloField::kWireBytes: return static_cast<double>(s.wire_bytes);
    case SloField::kPayloadBytes: return static_cast<double>(s.payload_bytes);
    case SloField::kRetries: return static_cast<double>(s.retries);
    case SloField::kDrops: return static_cast<double>(s.drops);
    case SloField::kAborts: return static_cast<double>(s.aborts);
    case SloField::kCrashes: return static_cast<double>(s.crashes);
    case SloField::kEvictions: return static_cast<double>(s.evictions);
    case SloField::kStrikes: return static_cast<double>(s.strikes);
    case SloField::kLoss: return s.loss;
    case SloField::kAccuracy: return s.accuracy;
  }
  return 0.0;
}

SloEngine::SloEngine(std::vector<SloRule> rules)
    : rules_(std::move(rules)), states_(rules_.size()) {}

bool SloEngine::judge(const SloRule& r, RuleState& st, const RoundSample& s,
                      double& value, double& bound, std::string& detail) {
  value = slo_field(s, r.field);
  const auto above = [&](double v, double b) {
    return r.breach_when_above ? v > b : v < b;
  };
  switch (r.kind) {
    case SloRuleKind::kThreshold: {
      ++st.evaluated;
      bound = r.limit;
      if (!above(value, bound)) return false;
      detail = std::string(slo_field_name(r.field)) + "=" + fmt_short(value) +
               (r.breach_when_above ? " > " : " < ") + fmt_short(bound);
      return true;
    }
    case SloRuleKind::kEwmaDrift: {
      if (!st.baseline_init) {
        st.baseline = value;
        st.baseline_init = true;
        st.seen = 1;
        return false;
      }
      bool breach = false;
      if (st.seen >= r.warmup) {
        ++st.evaluated;
        bound = std::max(r.factor * st.baseline, r.limit);
        breach = above(value, bound);
      }
      ++st.seen;
      if (breach) {
        // A breaching sample is excluded from the baseline so a
        // sustained incident cannot drag the reference up and
        // self-silence the rule.
        detail = std::string(slo_field_name(r.field)) + "=" +
                 fmt_short(value) + " vs " + fmt_short(r.factor) + "×ewma(" +
                 fmt_short(st.baseline) + ")";
        return true;
      }
      st.baseline = r.alpha * value + (1.0 - r.alpha) * st.baseline;
      return false;
    }
    case SloRuleKind::kQuantileDrift: {
      bool breach = false;
      if (st.window.size() >= r.warmup) {
        ++st.evaluated;
        const double q = window_quantile(st.window, r.quantile);
        bound = std::max(r.factor * q, r.limit);
        breach = above(value, bound);
        if (breach) {
          detail = std::string(slo_field_name(r.field)) + "=" +
                   fmt_short(value) + " vs " + fmt_short(r.factor) + "×p" +
                   fmt_short(r.quantile * 100.0) + "(" + fmt_short(q) + ")";
        }
      }
      if (!breach) {
        // Same exclusion as EWMA drift: the rolling reference window
        // only absorbs in-SLO samples.
        st.window.push_back(value);
        while (st.window.size() > r.window) st.window.pop_front();
      }
      return breach;
    }
    case SloRuleKind::kConvergenceStall: {
      if (!st.baseline_init || value < st.baseline - r.min_delta) {
        st.baseline = value;
        st.baseline_init = true;
        st.stalled = 0;
        ++st.evaluated;
        return false;
      }
      ++st.stalled;
      ++st.evaluated;
      bound = st.baseline;
      if (st.stalled < r.window) return false;
      detail = "no improvement > " + fmt_double(r.min_delta) + " on best " +
               std::string(slo_field_name(r.field)) + " " +
               fmt_short(st.baseline) + " for " +
               std::to_string(st.stalled) + " evaluated rounds";
      return true;
    }
    case SloRuleKind::kByteBudget: {
      if (s.expected_payload_bytes <= 0.0) return false;
      ++st.evaluated;
      value = static_cast<double>(s.payload_bytes);
      bound = (1.0 + r.tolerance) * s.expected_payload_bytes;
      if (value <= bound) return false;
      detail = "payload " + std::to_string(s.payload_bytes) + " B > (1+" +
               fmt_short(r.tolerance) + ")×Eq(4)/(5) " +
               fmt_short(s.expected_payload_bytes) + " B";
      return true;
    }
  }
  return false;
}

std::vector<SloBreach> SloEngine::evaluate(const RoundSample& s,
                                           Observability* o) {
  ++samples_;
  std::vector<SloBreach> fired;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const SloRule& r = rules_[i];
    RuleState& st = states_[i];
    if (r.committed_only && !s.committed) continue;
    // Loss/accuracy sentinel: the round was not evaluated, so rules on
    // those fields have nothing to judge.
    if ((r.field == SloField::kLoss || r.field == SloField::kAccuracy) &&
        slo_field(s, r.field) < 0.0) {
      continue;
    }
    double value = 0.0;
    double bound = 0.0;
    std::string detail;
    const std::uint64_t evaluated_before = st.evaluated;
    const bool breach = judge(r, st, s, value, bound, detail);
    if (o != nullptr && st.evaluated > evaluated_before) {
      o->metrics.counter("slo.evaluations").add(st.evaluated -
                                                evaluated_before);
    }
    if (!breach) continue;
    ++st.breaches;
    if (st.breaches == 1) st.first_breach_round = s.round;
    SloBreach b{r.name, s.round, value, bound, detail};
    if (o != nullptr) {
      o->metrics.counter("slo.breaches").add();
      o->metrics.counter("slo.breach." + r.name).add();
      if (o->trace.category_enabled("slo")) {
        o->trace.instant("slo", "slo.breach", 0,
                         {{"rule", r.name},
                          {"round", s.round},
                          {"value", value},
                          {"bound", bound},
                          {"detail", detail}});
      }
    }
    breaches_.push_back(b);
    fired.push_back(std::move(b));
  }
  return fired;
}

void SloEngine::register_metrics(Observability& o) const {
  o.metrics.counter("slo.evaluations");
  o.metrics.counter("slo.breaches");
  for (const SloRule& r : rules_) o.metrics.counter("slo.breach." + r.name);
}

SloReport SloEngine::report() const {
  SloReport rep;
  rep.samples = samples_;
  rep.breaches = breaches_;
  rep.rules.reserve(rules_.size());
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    rep.rules.push_back({rules_[i].name, states_[i].evaluated,
                         states_[i].breaches, states_[i].first_breach_round});
  }
  return rep;
}

std::string SloReport::table() const {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof line, "  %-22s %10s %9s %12s\n", "rule",
                "evaluated", "breaches", "first breach");
  out += line;
  for (const RuleStats& r : rules) {
    std::string first = "-";
    if (r.breaches > 0) {
      first = "r";
      first += std::to_string(r.first_breach_round);
    }
    std::snprintf(line, sizeof line, "  %-22s %10llu %9llu %12s\n",
                  r.rule.c_str(),
                  static_cast<unsigned long long>(r.evaluated),
                  static_cast<unsigned long long>(r.breaches), first.c_str());
    out += line;
  }
  std::snprintf(line, sizeof line, "  %zu samples, %zu breach(es): %s\n",
                static_cast<std::size_t>(samples), breaches.size(),
                healthy() ? "HEALTHY" : "BREACHED");
  out += line;
  return out;
}

std::string SloReport::json() const {
  std::string out = "{\"schema_version\":";
  out += std::to_string(kRoundSampleSchemaVersion);
  out += ",\"samples\":" + std::to_string(samples);
  out += ",\"healthy\":";
  out += healthy() ? "true" : "false";
  out += ",\"rules\":[";
  bool first = true;
  for (const RuleStats& r : rules) {
    if (!first) out += ',';
    first = false;
    out += "{\"rule\":" + json_quote(r.rule) +
           ",\"evaluated\":" + std::to_string(r.evaluated) +
           ",\"breaches\":" + std::to_string(r.breaches);
    if (r.breaches > 0) {
      out += ",\"first_breach_round\":" + std::to_string(r.first_breach_round);
    }
    out += '}';
  }
  out += "],\"breaches\":[";
  first = true;
  for (const SloBreach& b : breaches) {
    if (!first) out += ',';
    first = false;
    out += "{\"rule\":" + json_quote(b.rule) +
           ",\"round\":" + std::to_string(b.round) +
           ",\"value\":" + fmt_double(b.value) +
           ",\"bound\":" + fmt_double(b.bound) +
           ",\"detail\":" + json_quote(b.detail) + '}';
  }
  out += "]}";
  return out;
}

SloAlert make_slo_alert(const SpanRecorder& rec, const SloBreach& breach) {
  SloAlert alert;
  alert.breach = breach;
  alert.critical_path = extract_critical_path(rec, breach.round);
  alert.spans_jsonl = round_spans_jsonl(rec, breach.round);
  // A breaching round that committed gets the exact phase attribution;
  // one that never committed gets the abort flight-recorder dump (open
  // and aborted spans first) — same evidence `p2pflctl explain` shows.
  alert.table = alert.critical_path.found
                    ? critical_path_table(alert.critical_path)
                    : make_postmortem(rec, breach.round).table;
  return alert;
}

std::string slo_alert_text(const SloAlert& alert) {
  std::string out = "SLO ALERT [" + alert.breach.rule + "] round " +
                    std::to_string(alert.breach.round) + ": " +
                    alert.breach.detail + "\n";
  out += alert.table;
  return out;
}

std::vector<SloRule> default_rules(double max_latency_ms) {
  std::vector<SloRule> rules;
  {
    SloRule r;
    r.name = "round_latency";
    r.kind = SloRuleKind::kThreshold;
    r.field = SloField::kLatencyMs;
    r.limit = max_latency_ms;
    rules.push_back(r);
  }
  {
    SloRule r;
    r.name = "latency_drift";
    r.kind = SloRuleKind::kEwmaDrift;
    r.field = SloField::kLatencyMs;
    r.factor = 2.5;
    r.alpha = 0.2;
    r.warmup = 3;
    // Floor: sub-10ms jitter around a tiny baseline is not an incident.
    r.limit = 10.0;
    rules.push_back(r);
  }
  {
    SloRule r;
    r.name = "retry_storm";
    r.kind = SloRuleKind::kQuantileDrift;
    r.field = SloField::kRetries;
    r.quantile = 0.5;
    r.factor = 3.0;
    r.window = 8;
    r.warmup = 3;
    // Floor: a handful of retries over a zero-retry baseline is noise.
    r.limit = 8.0;
    rules.push_back(r);
  }
  {
    SloRule r;
    r.name = "byte_budget";
    r.kind = SloRuleKind::kByteBudget;
    r.field = SloField::kPayloadBytes;
    // Fault-free rounds should track Eq. (4)/(5) closely; retries and
    // Raft-replicated model entries may add on top, so the band is
    // generous and the rule is scoped to committed rounds.
    r.tolerance = 0.25;
    r.committed_only = true;
    rules.push_back(r);
  }
  {
    SloRule r;
    r.name = "convergence_stall";
    r.kind = SloRuleKind::kConvergenceStall;
    r.field = SloField::kLoss;
    r.window = 8;
    r.min_delta = 1e-4;
    rules.push_back(r);
  }
  return rules;
}

}  // namespace p2pfl::obs
