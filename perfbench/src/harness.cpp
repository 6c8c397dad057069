#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench/json_util.hpp"

namespace perfbench {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double heap_inuse_mb() {
  return static_cast<double>(mallinfo2().uordblks) / (1024.0 * 1024.0);
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

std::string fs_type(const std::string& path) {
  struct statfs st{};
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

std::size_t rounds_for(int seconds, double nominal_round_s,
                       std::size_t min_rounds, std::size_t max_rounds) {
  const auto r = static_cast<std::size_t>(
      std::lround(static_cast<double>(seconds) / nominal_round_s));
  return std::clamp(r, min_rounds, max_rounds);
}

// --- Tracer ----------------------------------------------------------------

namespace {
Tracer* g_tracer = nullptr;
}  // namespace

Tracer* tracer() { return g_tracer; }
void set_tracer(Tracer* t) { g_tracer = t; }

int Tracer::open(std::string name, std::string module) {
  Record r;
  r.name = std::move(name);
  r.module = std::move(module);
  r.start = wall_s();
  r.parent = stack_.empty() ? -1 : stack_.back();
  records_.push_back(std::move(r));
  const int id = static_cast<int>(records_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  records_[static_cast<std::size_t>(id)].end = wall_s();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::vector<double> child(records_.size(), 0.0);
  for (const Record& r : records_) {
    if (r.parent >= 0) child[static_cast<std::size_t>(r.parent)] += r.end - r.start;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out[r.module] += std::max(0.0, (r.end - r.start) - child[i]);
  }
  return out;
}

std::string Tracer::json() const {
  p2pfl::bench::JsonWriter w;
  w.object_begin().key("spans").array_begin();
  const double t0 = records_.empty() ? 0.0 : records_.front().start;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    w.object_begin()
        .field_u64("id", i)
        .field_str("name", r.name)
        .field_str("module", r.module)
        .field_double("start_us", (r.start - t0) * 1e6, "%.3f")
        .field_double("end_us", (r.end - t0) * 1e6, "%.3f")
        .key("parent")
        .value_raw(std::to_string(r.parent))
        .object_end();
  }
  w.array_end().object_end();
  return w.str() + "\n";
}

Span::Span(const char* name, const char* module) {
  if (g_tracer != nullptr) id_ = g_tracer->open(name, module);
}

Span::~Span() {
  if (id_ >= 0 && g_tracer != nullptr) g_tracer->close(id_);
}

// --- Result ----------------------------------------------------------------

bool Result::all_checks_pass() const {
  for (const auto& [name, c] : checks) {
    if (!c.first) return false;
  }
  return !checks.empty();
}

std::string Result::json(const Options& opt) const {
  p2pfl::bench::JsonWriter w;
  w.object_begin()
      .field_str("workload", opt.workload)
      .field_u64("seed", opt.seed)
      .field_u64("seconds", static_cast<std::uint64_t>(opt.seconds))
      .field_u64("trace", opt.trace ? 1 : 0)
      .field_u64("attempted", attempted)
      .field_u64("failed", failed);
  w.key("checks").object_begin();
  for (const auto& [name, c] : checks) {
    w.key(name).object_begin().field_bool("ok", c.first).field_str("detail", c.second);
    w.object_end();
  }
  w.object_end().key("metrics").object_begin();
  for (const auto& [name, m] : metrics) {
    // A non-finite value is not JSON; -1 marks it (every metric is >= 0).
    w.key(name).object_begin();
    w.field_double("value", std::isfinite(m.value) ? m.value : -1.0).field_str("unit", m.unit);
    w.object_end();
  }
  w.object_end().key("counts").object_begin();
  for (const auto& [name, v] : counts) w.field_str(name, v);
  w.object_end().key("info").object_begin();
  for (const auto& [name, v] : info) w.field_str(name, v);
  w.object_end().object_end();
  return w.str();
}

double RoundTimeline::round_s_p50() const {
  std::vector<double> gaps;
  for (std::size_t i = 1; i < commit_wall.size(); ++i) {
    gaps.push_back(commit_wall[i] - commit_wall[i - 1]);
  }
  return median(std::move(gaps));
}

void add_end_to_end(Result& r, const RoundTimeline& tl, std::size_t peers,
                    std::size_t started, std::size_t ok) {
  const double rounds = static_cast<double>(tl.timed_rounds());
  r.metric("setup_s", tl.setup_s(), "s");
  r.metric("round_s_p50", tl.round_s_p50(), "s");
  r.metric("peers_per_s",
           static_cast<double>(peers) * rounds / tl.timed_wall_s(), "1/s");
  r.metric("cpu_s_per_round", tl.timed_cpu_s() / rounds, "s");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.metric("round_ok_ratio",
           started == 0 ? 0.0
                        : static_cast<double>(ok) / static_cast<double>(started),
           "ratio");
  r.info["round_samples"] = std::to_string(tl.timed_rounds());
  std::string gaps = "round wall times (s):";
  for (std::size_t i = 1; i < tl.commit_wall.size(); ++i) {
    gaps += " " + fmt("%.4g", tl.commit_wall[i] - tl.commit_wall[i - 1]);
  }
  r.note(gaps);
  r.attempted = started;
  r.failed = started - ok;
}

std::map<std::string, std::uint64_t> messages_by_family(
    const p2pfl::net::TrafficStats& stats) {
  std::map<std::string, std::uint64_t> out = {
      {"raft", 0}, {"sac", 0}, {"agg", 0}, {"member", 0}, {"fed", 0},
      {"other", 0}};
  for (const auto& [kind, c] : stats.sent_by_kind) {
    std::string family = "other";
    if (kind.rfind("raft/fed", 0) == 0 || kind == "join") {
      family = "fed";
    } else if (kind.rfind("raft/", 0) == 0) {
      family = "raft";
    } else if (kind.rfind("sac/", 0) == 0) {
      family = "sac";
    } else if (kind.rfind("agg/", 0) == 0) {
      family = "agg";
    } else if (kind.rfind("member/", 0) == 0) {
      family = "member";
    }
    out[family] += c.messages;
  }
  return out;
}

}  // namespace perfbench
