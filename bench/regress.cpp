// Bench regression gate: diff a freshly produced BENCH_*.json against
// the committed baseline with per-metric tolerance bands.
//
//   regress --baseline BENCH_scale.json --fresh build/fresh_scale.json
//   regress --self-test
//
// Every leaf metric of the two documents is classified by the first
// matching rule of the bench's policy table (dotted-path patterns; `*`
// matches one segment, `**` the rest):
//
//   exact — must match to the literal character (the simulator is
//           deterministic, so counts, bytes and virtual times are
//           reproducible bit-for-bit on one toolchain);
//   band  — numeric, |fresh - base| <= max(rel * |base|, abs) (float
//           metrics that may move across compilers/FPU paths);
//   perf  — wall-clock throughput: machine-dependent, so drift outside
//           the band only warns (GitHub `::warning` annotation) unless
//           --strict-perf promotes it to a failure;
//   ignore — never compared.
//
// A metric missing from either side, a schema_version mismatch or a
// `bench` name mismatch always fails. Exit codes: 0 pass, 1 regression,
// 2 usage/unreadable/unparseable input. `--self-test` runs the gate
// against built-in documents, asserting it passes an identical pair and
// catches out-of-band perturbations (CI runs this as a ctest entry).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/json_util.hpp"
#include "common/json.hpp"

namespace {

using namespace p2pfl;

enum class MetricClass { kExact, kBand, kPerf, kIgnore };

struct MetricRule {
  const char* pattern;
  MetricClass cls = MetricClass::kExact;
  double rel = 0.0;  ///< band half-width relative to |baseline|
  double abs = 0.0;  ///< band half-width floor
};

/// Perf bands are generous: CI machines differ, the annotation is a
/// trend signal, not a gate (unless --strict-perf).
constexpr double kPerfRel = 0.60;

const std::vector<MetricRule>& rules_for(const std::string& bench) {
  static const std::vector<MetricRule> kScale = {
      {"wall_s", MetricClass::kPerf, kPerfRel, 0.0},
      {"peers_per_sec", MetricClass::kPerf, kPerfRel, 0.0},
      {"events_per_sec", MetricClass::kPerf, kPerfRel, 0.0},
      {"wire_bytes_per_sec", MetricClass::kPerf, kPerfRel, 0.0},
      {"peak_rss_mb", MetricClass::kPerf, kPerfRel, 0.0},
      {"micro.ops", MetricClass::kExact},
      {"micro.**", MetricClass::kPerf, kPerfRel, 0.0},
      // n, groups, rounds, completed, sim_ms, events, wire_bytes,
      // pool slots: deterministic -> exact.
      {"**", MetricClass::kExact},
  };
  static const std::vector<MetricRule> kAttack = {
      {"clean.*", MetricClass::kBand, 0.0, 0.02},
      {"cells.*.accuracy", MetricClass::kBand, 0.0, 0.02},
      {"cells.*.test_loss", MetricClass::kBand, 0.10, 0.01},
      // Geometry, seeds, byzantine_peers, gate verdicts: exact.
      {"**", MetricClass::kExact},
  };
  static const std::vector<MetricRule> kPaper = {
      {"settings.*.wall_s", MetricClass::kPerf, kPerfRel, 0.0},
      {"settings.*.peak_rss_mb", MetricClass::kPerf, kPerfRel, 0.0},
      // Geometry, completion and the Eq. (5) |w| counts: exact.
      {"**", MetricClass::kExact},
  };
  static const std::vector<MetricRule> kDefault = {
      {"**", MetricClass::kBand, 0.05, 1e-9},
  };
  if (bench == "scale_sweep") return kScale;
  if (bench == "attack_sweep") return kAttack;
  if (bench == "paper_round") return kPaper;
  return kDefault;
}

bool segment_match(std::string_view pat, std::string_view seg) {
  return pat == "*" || pat == seg;
}

/// Dotted-path glob: `*` one segment, `**` everything from here on.
bool path_match(std::string_view pattern, std::string_view path) {
  while (true) {
    const std::size_t pdot = pattern.find('.');
    const std::string_view pseg = pattern.substr(0, pdot);
    if (pseg == "**") return true;
    const std::size_t sdot = path.find('.');
    const std::string_view sseg = path.substr(0, sdot);
    if (!segment_match(pseg, sseg)) return false;
    const bool pend = pdot == std::string_view::npos;
    const bool send = sdot == std::string_view::npos;
    if (pend || send) return pend && send;
    pattern = pattern.substr(pdot + 1);
    path = path.substr(sdot + 1);
  }
}

struct Leaf {
  std::string path;
  const json::Value* value;
};

void flatten(const json::Value& v, const std::string& prefix,
             std::vector<Leaf>& out) {
  if (v.is_object()) {
    for (const auto& [k, child] : v.object) {
      flatten(child, prefix.empty() ? k : prefix + "." + k, out);
    }
  } else if (v.is_array()) {
    for (std::size_t i = 0; i < v.array.size(); ++i) {
      flatten(v.array[i], prefix + "." + std::to_string(i), out);
    }
  } else {
    out.push_back({prefix, &v});
  }
}

std::string scalar_text(const json::Value& v) {
  switch (v.kind) {
    case json::Value::Kind::kNull:
      return "null";
    case json::Value::Kind::kBool:
      return v.boolean ? "true" : "false";
    default:
      return v.text;
  }
}

struct GateResult {
  std::size_t compared = 0;
  std::vector<std::string> failures;
  std::vector<std::string> warnings;
};

/// Compare two parsed documents under the bench's policy table.
GateResult diff_documents(const json::Value& baseline,
                          const json::Value& fresh, bool strict_perf) {
  GateResult res;
  const json::Value* bname = baseline.get("bench");
  const json::Value* fname = fresh.get("bench");
  if (bname == nullptr || fname == nullptr || bname->text != fname->text) {
    res.failures.push_back("bench name mismatch between documents");
    return res;
  }
  const json::Value* bver = baseline.get("schema_version");
  const json::Value* fver = fresh.get("schema_version");
  if (bver == nullptr || fver == nullptr || bver->text != fver->text) {
    res.failures.push_back(
        "schema_version mismatch (regenerate the committed baseline)");
    return res;
  }
  const std::vector<MetricRule>& rules = rules_for(bname->text);

  std::vector<Leaf> base_leaves;
  flatten(baseline, "", base_leaves);
  std::vector<Leaf> fresh_leaves;
  flatten(fresh, "", fresh_leaves);
  auto find_leaf = [](const std::vector<Leaf>& leaves,
                      const std::string& path) -> const json::Value* {
    for (const Leaf& l : leaves) {
      if (l.path == path) return l.value;
    }
    return nullptr;
  };
  auto rule_of = [&](const std::string& path) -> const MetricRule& {
    for (const MetricRule& r : rules) {
      if (path_match(r.pattern, path)) return r;
    }
    static const MetricRule kExactFallback{"**", MetricClass::kExact};
    return kExactFallback;
  };
  char line[512];

  // Walk the baseline (coverage), then catch fresh-only additions.
  for (const Leaf& l : base_leaves) {
    const MetricRule& rule = rule_of(l.path);
    if (rule.cls == MetricClass::kIgnore) continue;
    const json::Value* f = find_leaf(fresh_leaves, l.path);
    ++res.compared;
    if (f == nullptr) {
      res.failures.push_back(l.path + ": missing from fresh run");
      continue;
    }
    const bool both_numbers = l.value->is_number() && f->is_number();
    switch (rule.cls) {
      case MetricClass::kExact:
        if (scalar_text(*l.value) != scalar_text(*f)) {
          std::snprintf(line, sizeof line, "%s: exact mismatch (%s -> %s)",
                        l.path.c_str(), scalar_text(*l.value).c_str(),
                        scalar_text(*f).c_str());
          res.failures.push_back(line);
        }
        break;
      case MetricClass::kBand:
      case MetricClass::kPerf: {
        if (!both_numbers) {
          if (scalar_text(*l.value) != scalar_text(*f)) {
            res.failures.push_back(l.path + ": non-numeric mismatch");
          }
          break;
        }
        const double base = l.value->number;
        const double delta = f->number - base;
        const double band =
            std::max(rule.rel * std::abs(base), rule.abs);
        if (std::abs(delta) <= band) break;
        std::snprintf(line, sizeof line,
                      "%s: %.6g -> %.6g (delta %+.6g, band +/-%.6g)",
                      l.path.c_str(), base, f->number, delta, band);
        if (rule.cls == MetricClass::kPerf && !strict_perf) {
          res.warnings.push_back(line);
        } else {
          res.failures.push_back(line);
        }
        break;
      }
      case MetricClass::kIgnore:
        break;
    }
  }
  for (const Leaf& l : fresh_leaves) {
    if (rule_of(l.path).cls == MetricClass::kIgnore) continue;
    if (find_leaf(base_leaves, l.path) == nullptr) {
      res.failures.push_back(
          l.path + ": new metric absent from the committed baseline");
    }
  }
  return res;
}

std::string read_file(const std::string& path, bool& ok) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    ok = false;
    return {};
  }
  std::string out;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    out.append(buf, got);
  }
  std::fclose(f);
  ok = true;
  return out;
}

int report(const char* label, const GateResult& res) {
  for (const std::string& w : res.warnings) {
    // GitHub annotation: visible on the run page without failing it.
    std::printf("::warning title=bench-regress::%s %s\n", label, w.c_str());
  }
  for (const std::string& f : res.failures) {
    std::fprintf(stderr, "regress: %s: FAIL %s\n", label, f.c_str());
  }
  std::printf(
      "regress: %s: %zu metric(s) compared, %zu failure(s), %zu perf "
      "warning(s)\n",
      label, res.compared, res.failures.size(), res.warnings.size());
  return res.failures.empty() ? 0 : 1;
}

/// Built-in documents exercising every rule class; asserts the gate
/// passes an identical pair and flags each perturbation kind.
int self_test() {
  const char* base_text =
      "{\"bench\":\"scale_sweep\",\"schema_version\":1,\"n\":1000,"
      "\"wall_s\":2.5,\"events\":12345,\"wire_bytes\":678,"
      "\"micro\":{\"ops\":1000,\"wheel\":{\"schedule_fire_per_sec\":9e6}}}";
  json::ParseError err;
  const auto base = json::parse(base_text, &err);
  if (!base) {
    std::fprintf(stderr, "self-test: baseline parse failed: %s\n",
                 err.message.c_str());
    return 1;
  }
  std::size_t checks = 0, bad = 0;
  auto expect = [&](const char* what, bool cond) {
    ++checks;
    if (!cond) {
      ++bad;
      std::fprintf(stderr, "self-test: FAIL %s\n", what);
    }
  };

  // Identical documents pass.
  expect("identical pair passes",
         diff_documents(*base, *base, false).failures.empty());

  auto perturbed = [&](const char* text) {
    const auto v = json::parse(text);
    return diff_documents(*base, *v, false);
  };
  // Exact metric perturbed -> failure.
  expect("exact drift fails",
         !perturbed("{\"bench\":\"scale_sweep\",\"schema_version\":1,"
                    "\"n\":1000,\"wall_s\":2.5,\"events\":12346,"
                    "\"wire_bytes\":678,\"micro\":{\"ops\":1000,\"wheel\":"
                    "{\"schedule_fire_per_sec\":9e6}}}")
              .failures.empty());
  // Perf metric perturbed beyond the band -> warning, not failure.
  {
    const GateResult r = perturbed(
        "{\"bench\":\"scale_sweep\",\"schema_version\":1,\"n\":1000,"
        "\"wall_s\":9.5,\"events\":12345,\"wire_bytes\":678,"
        "\"micro\":{\"ops\":1000,\"wheel\":{\"schedule_fire_per_sec\":9e6}}}");
    expect("perf drift soft-fails", r.failures.empty() && !r.warnings.empty());
  }
  // Same perturbation under --strict-perf -> failure.
  {
    const auto v = json::parse(
        "{\"bench\":\"scale_sweep\",\"schema_version\":1,\"n\":1000,"
        "\"wall_s\":9.5,\"events\":12345,\"wire_bytes\":678,"
        "\"micro\":{\"ops\":1000,\"wheel\":{\"schedule_fire_per_sec\":9e6}}}");
    expect("strict perf fails",
           !diff_documents(*base, *v, true).failures.empty());
  }
  // Missing metric -> failure.
  expect("missing metric fails",
         !perturbed("{\"bench\":\"scale_sweep\",\"schema_version\":1,"
                    "\"n\":1000,\"wall_s\":2.5,\"events\":12345,"
                    "\"micro\":{\"ops\":1000,\"wheel\":"
                    "{\"schedule_fire_per_sec\":9e6}}}")
              .failures.empty());
  // Schema bump -> failure with regeneration hint.
  expect("schema mismatch fails",
         !perturbed("{\"bench\":\"scale_sweep\",\"schema_version\":2,"
                    "\"n\":1000,\"wall_s\":2.5,\"events\":12345,"
                    "\"wire_bytes\":678,\"micro\":{\"ops\":1000,\"wheel\":"
                    "{\"schedule_fire_per_sec\":9e6}}}")
              .failures.empty());

  // The sweep's peak RSS is machine-dependent: drift only warns.
  {
    const auto rss_base = json::parse(
        "{\"bench\":\"scale_sweep\",\"schema_version\":1,\"events\":7,"
        "\"peak_rss_mb\":60.0}");
    const auto rss_fresh = json::parse(
        "{\"bench\":\"scale_sweep\",\"schema_version\":1,\"events\":7,"
        "\"peak_rss_mb\":200.0}");
    const GateResult r = diff_documents(*rss_base, *rss_fresh, false);
    expect("scale RSS drift soft-fails",
           r.failures.empty() && r.warnings.size() == 1);
  }

  // Band rules: attack cells move inside the band, fail outside it.
  const auto abase = json::parse(
      "{\"bench\":\"attack_sweep\",\"schema_version\":1,\"gate\":"
      "{\"checked\":4,\"failed\":0},\"clean\":{\"mean\":0.9},\"cells\":"
      "[{\"attack\":\"sign_flip\",\"defense\":\"mean\",\"accuracy\":0.30}]}");
  const auto a_in = json::parse(
      "{\"bench\":\"attack_sweep\",\"schema_version\":1,\"gate\":"
      "{\"checked\":4,\"failed\":0},\"clean\":{\"mean\":0.9},\"cells\":"
      "[{\"attack\":\"sign_flip\",\"defense\":\"mean\",\"accuracy\":0.31}]}");
  const auto a_out = json::parse(
      "{\"bench\":\"attack_sweep\",\"schema_version\":1,\"gate\":"
      "{\"checked\":4,\"failed\":0},\"clean\":{\"mean\":0.9},\"cells\":"
      "[{\"attack\":\"sign_flip\",\"defense\":\"mean\",\"accuracy\":0.40}]}");
  expect("in-band accuracy passes",
         diff_documents(*abase, *a_in, false).failures.empty());
  expect("out-of-band accuracy fails",
         !diff_documents(*abase, *a_out, false).failures.empty());

  // Paper round: |w| counts and completion exact, time and RSS perf.
  auto paper = [](const char* completed, const char* units, const char* wall,
                  const char* rss) {
    return *json::parse(
        std::string("{\"bench\":\"paper_round\",\"schema_version\":1,") +
        "\"settings\":{\"3-2\":{\"completed\":" + completed +
        ",\"units\":" + units + ",\"eq5_units\":168.0,\"wall_s\":" + wall +
        ",\"peak_rss_mb\":" + rss + "}}}");
  };
  const json::Value pbase = paper("true", "168.0", "2.1", "1500.0");
  expect("identical paper rounds pass",
         diff_documents(pbase, pbase, false).failures.empty());
  expect("paper |w| drift fails",
         !diff_documents(pbase, paper("true", "169.0", "2.1", "1500.0"), false)
              .failures.empty());
  expect("paper round that did not complete fails",
         !diff_documents(pbase, paper("false", "168.0", "2.1", "1500.0"), false)
              .failures.empty());
  {
    const GateResult r =
        diff_documents(pbase, paper("true", "168.0", "9.9", "2900.0"), false);
    expect("paper time and RSS drift soft-fail",
           r.failures.empty() && r.warnings.size() == 2);
  }

  std::printf("regress --self-test: %zu check(s), %zu failure(s)\n", checks,
              bad);
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  if (args.has("self-test")) return self_test();

  const std::string baseline_path = args.get("baseline", "");
  const std::string fresh_path = args.get("fresh", "");
  if (baseline_path.empty() || fresh_path.empty()) {
    std::fprintf(stderr,
                 "usage: regress --baseline FILE --fresh FILE "
                 "[--strict-perf] | regress --self-test\n");
    return 2;
  }
  bool ok = false;
  const std::string base_text = read_file(baseline_path, ok);
  if (!ok) {
    std::fprintf(stderr, "regress: cannot read %s\n", baseline_path.c_str());
    return 2;
  }
  const std::string fresh_text = read_file(fresh_path, ok);
  if (!ok) {
    std::fprintf(stderr, "regress: cannot read %s\n", fresh_path.c_str());
    return 2;
  }
  json::ParseError err;
  const auto base = json::parse(base_text, &err);
  if (!base) {
    std::fprintf(stderr, "regress: %s: parse error at %zu: %s\n",
                 baseline_path.c_str(), err.offset, err.message.c_str());
    return 2;
  }
  err = {};
  const auto fresh = json::parse(fresh_text, &err);
  if (!fresh) {
    std::fprintf(stderr, "regress: %s: parse error at %zu: %s\n",
                 fresh_path.c_str(), err.offset, err.message.c_str());
    return 2;
  }
  const json::Value* bname = base->get("bench");
  const GateResult res =
      diff_documents(*base, *fresh, args.has("strict-perf"));
  return report(bname != nullptr ? bname->text.c_str() : "?", res);
}
