// One aggregation round at the paper's scale, and what it costs.
//
// Runs one core::FixedLeaderRound on the simulator with N = 30 peers,
// each holding a distinct model of the Fig. 5 CNN's 1.25M parameters, in
// two k-n settings of §VII-B: 3-2 (m = 10 subgroups of n = 3, k = 2) and
// 5-3 (m = 6 subgroups of n = 5, k = 3). Every setting runs in a child
// process of its own, so the peak RSS it reports is that setting's. Per
// setting it records:
//
//   units       |w| units the network charged (exact: Eq. (5));
//   eq5_units   analysis::two_layer_ft_cost_eq5 for the setting;
//   completed   the round committed and every peer got the global model
//               (exact);
//   wall_s      wall time of the round (perf);
//   peak_rss_mb peak resident set of the setting's process (perf).
//
// and writes the document to BENCH_paper.json (--out), which
// bench/regress gates. Exits 1 when a round did not complete, its |w|
// count differs from Eq. (5), or its global model is off the float64
// mean of the inputs by more than 1e-5.
//
//   paper_round [--out FILE]
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/cost_model.hpp"
#include "bench/bench_util.hpp"
#include "bench/json_util.hpp"
#include "common/rng.hpp"
#include "core/agg_cost_sim.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace p2pfl;

constexpr std::size_t kPeers = 30;
constexpr std::size_t kDim = 1'250'000;
constexpr std::uint64_t kSeed = 7;
/// Largest |global - float64 mean| accepted per element: shares are
/// float32 fractions of inputs in [-1, 1], subtotals sum in double.
constexpr double kTolerance = 1e-5;

struct Setting {
  const char* name;
  std::size_t n, k, m;
};
constexpr Setting kSettings[] = {{"3-2", 3, 2, 10}, {"5-3", 5, 3, 6}};

/// What a setting's child process reports back through its pipe.
struct Outcome {
  bool ran = false;
  bool completed = false;
  bool accurate = false;
  double units = 0.0;
  double wall_s = 0.0;
  double peak_rss_mb = 0.0;
};

/// One round of `s` in this process.
Outcome run_setting(const Setting& s) {
  std::vector<secagg::Vector> models;
  std::vector<double> mean(kDim, 0.0);
  for (std::size_t p = 0; p < kPeers; ++p) {
    Rng rng = Rng(kSeed).fork(p);
    secagg::Vector v(kDim);
    for (std::size_t i = 0; i < kDim; ++i) {
      v[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
      mean[i] += v[i];
    }
    models.push_back(std::move(v));
  }
  for (double& x : mean) x /= static_cast<double>(kPeers);

  sim::Simulator sim(kSeed);
  net::Network net(sim, {.base_latency = 15 * kMillisecond});
  core::AggregationConfig cfg;
  cfg.sac_dropout_tolerance = s.n - s.k;
  Outcome out;
  out.ran = true;
  const auto t0 = std::chrono::steady_clock::now();
  const core::FixedLeaderRound round(
      net, core::Topology::even(kPeers, s.m), cfg,
      [&models](PeerId id) { return models[id]; });
  out.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  out.completed = round.completed && round.received == kPeers;
  double worst = round.global.size() == kDim ? 0.0 : INFINITY;
  for (std::size_t i = 0; i < round.global.size() && i < kDim; ++i) {
    worst = std::max(
        worst, std::abs(static_cast<double>(round.global[i]) - mean[i]));
  }
  out.accurate = worst <= kTolerance;
  std::uint64_t payload = 0;
  for (const auto& [kind, c] : net.stats().sent_by_kind) payload += c.payload;
  out.units = static_cast<double>(payload) / (4.0 * kDim);
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  out.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  return out;
}

/// run_setting in a forked child, so that the peak RSS is the setting's
/// alone; `ran` stays false when the child died.
Outcome run_in_child(const Setting& s) {
  int fds[2];
  if (::pipe(fds) != 0) return {};
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return {};
  if (pid == 0) {
    ::close(fds[0]);
    const Outcome out = run_setting(s);
    const bool sent = ::write(fds[1], &out, sizeof out) == sizeof out;
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  Outcome out;
  if (::read(fds[0], &out, sizeof out) != sizeof out) out = Outcome{};
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) out.ran = false;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args(argc, argv);
  const std::string out_path =
      args.get("out", P2PFL_REPO_ROOT "/BENCH_paper.json");

  bench::JsonWriter w = bench::bench_document("paper_round");
  w.field_u64("peers", kPeers).field_u64("dim", kDim).field_u64("seed", kSeed);
  w.key("settings").object_begin();
  bool ok = true;
  for (const Setting& s : kSettings) {
    std::fprintf(stderr, "paper_round: %s, N=%zu m=%zu, dim=%zu ...\n",
                 s.name, kPeers, s.m, kDim);
    const Outcome o = run_in_child(s);
    const double eq5 = analysis::two_layer_ft_cost_eq5(kPeers, s.m, s.n, s.k);
    w.key(s.name)
        .object_begin()
        .field_u64("n", s.n)
        .field_u64("k", s.k)
        .field_u64("m", s.m)
        .field_bool("completed", o.ran && o.completed)
        .field_double("units", o.units, "%.1f")
        .field_double("eq5_units", eq5, "%.1f")
        .field_double("wall_s", o.wall_s, "%.3f")
        .field_double("peak_rss_mb", o.peak_rss_mb, "%.1f")
        .object_end();
    std::fprintf(stderr,
                 "paper_round: %s: %.3f s, peak %.1f MB, %.1f |w| "
                 "(Eq. (5): %.1f)\n",
                 s.name, o.wall_s, o.peak_rss_mb, o.units, eq5);
    if (!o.ran || !o.completed) {
      std::fprintf(stderr, "paper_round: %s: round did not complete\n",
                   s.name);
      ok = false;
    } else if (o.units != eq5) {
      std::fprintf(stderr, "paper_round: %s: %.1f |w| charged, Eq. (5) %.1f\n",
                   s.name, o.units, eq5);
      ok = false;
    } else if (!o.accurate) {
      std::fprintf(stderr,
                   "paper_round: %s: global model off the mean by more "
                   "than %g\n",
                   s.name, kTolerance);
      ok = false;
    }
  }
  w.object_end().object_end();
  const int emit_rc = bench::emit_bench_json(w.str(), out_path, "paper_round");
  if (emit_rc != 0) return emit_rc;
  return ok ? 0 : 1;
}
