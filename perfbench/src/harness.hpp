// Shared plumbing of the perfbench binary: process measurements, the
// benchmark-side span recorder used by traced runs, and the Result every
// workload fills in (metrics, output checks, exact counts).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/network.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory for artifacts (traced spans, WAL files); inside the
  /// checkout the benchmark runs from.
  std::string work_dir = ".bench_build/work";
};

/// Wall clock in seconds (steady, arbitrary epoch).
double wall_s();
/// CPU time of the whole process (user + sys, every thread), seconds.
double cpu_s();
/// Peak resident set size of the process so far, MB.
double peak_rss_mb();
/// Bytes malloc currently has handed out, MB (mallinfo2().uordblks).
double heap_inuse_mb();
double median(std::vector<double> xs);
/// `v` formatted by the printf format `f`, which takes one double.
std::string fmt(const char* f, double v);
/// Filesystem type name of `path` (statfs), e.g. "ext4", "tmpfs".
std::string fs_type(const std::string& path);

/// Rounds a workload runs for a given --seconds: a fixed function of the
/// argument (never of elapsed time), so every run does the same work.
std::size_t rounds_for(int seconds, double nominal_round_s,
                       std::size_t min_rounds, std::size_t max_rounds);

// --- benchmark-side spans (traced runs only) ---------------------------

/// Spans recorded from the benchmark's own files around each call into a
/// program layer. `module` is the layer the callee belongs to.
class Tracer {
 public:
  struct Record {
    std::string name;
    std::string module;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  int open(std::string name, std::string module);
  void close(int id);
  /// Per module: total span time minus the part covered by child spans.
  std::map<std::string, double> self_seconds() const;
  /// All spans as one JSON document.
  std::string json() const;

 private:
  std::vector<Record> records_;
  std::vector<int> stack_;
};

/// The active tracer, or nullptr in an untraced run.
Tracer* tracer();
void set_tracer(Tracer* t);

/// RAII span; free (one branch) when no tracer is active.
class Span {
 public:
  Span(const char* name, const char* module);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_ = -1;
};

// --- results -------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Output checks: name -> (passed, detail).
  std::map<std::string, std::pair<bool, std::string>> checks;
  /// Exact values that must repeat for the same seed (simulator runs).
  std::map<std::string, std::string> counts;
  std::map<std::string, std::string> info;
  /// Human-readable lines printed before the JSON line.
  std::vector<std::string> notes;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks[name] = {ok, detail};
  }
  void count(const std::string& name, std::uint64_t v) {
    counts[name] = std::to_string(v);
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  bool all_checks_pass() const;
  std::string json(const Options& opt) const;
};

/// Wall/CPU timeline of one run: setup start, then one entry per
/// committed round (the first is the warm-up).
struct RoundTimeline {
  double setup_start = 0.0;
  std::vector<double> commit_wall;
  std::vector<double> commit_cpu;

  void start() { setup_start = wall_s(); }
  void commit() {
    commit_wall.push_back(wall_s());
    commit_cpu.push_back(cpu_s());
  }
  std::size_t timed_rounds() const {
    return commit_wall.empty() ? 0 : commit_wall.size() - 1;
  }
  double setup_s() const { return commit_wall.front() - setup_start; }
  double timed_wall_s() const {
    return commit_wall.back() - commit_wall.front();
  }
  double timed_cpu_s() const { return commit_cpu.back() - commit_cpu.front(); }
  /// Median wall gap between consecutive commits of the timed phase.
  double round_s_p50() const;
};

/// The end-to-end metrics every workload reports.
void add_end_to_end(Result& r, const RoundTimeline& tl, std::size_t peers,
                    std::size_t started, std::size_t ok);

/// Network::stats() message counts, split into the families the layer
/// table reports (raft = subgroup Raft, fed = FedAvg-layer Raft + joins).
std::map<std::string, std::uint64_t> messages_by_family(
    const p2pfl::net::TrafficStats& stats);

}  // namespace perfbench
