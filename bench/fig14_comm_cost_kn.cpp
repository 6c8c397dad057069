// Fig. 14: total communication cost per aggregation for different k-n
// settings as the peer count N grows. Settings: 3-3, 3-2, 5-5, 5-3 (our
// two-layer system; "k-n" = k-out-of-n SAC in subgroups of n) and the
// n = N one-layer SAC baseline. The closed-form model is printed next
// to bytes counted by simulating the real protocol; the binary exits 1 if
// any cell's two numbers differ.
#include <cmath>
#include <cstdio>
#include <vector>

#include "analysis/cost_model.hpp"
#include "bench/bench_util.hpp"
#include "bench/obs_util.hpp"
#include "core/agg_cost_sim.hpp"
#include "net/network.hpp"

int main(int argc, char** argv) {
  using namespace p2pfl;
  bench::Args args(argc, argv);
  const std::size_t max_n =
      static_cast<std::size_t>(args.get_int("max-peers", 50));
  const analysis::ModelSize w;

  bench::print_environment("Fig. 14 — communication cost per k-n setting");
  std::printf("|w| = %.0f Mb; columns are Gb per aggregation "
              "(model / simulated)\n\n",
              w.megabits());

  struct Setting {
    std::size_t n, k;
  };
  const std::vector<Setting> settings{{3, 3}, {3, 2}, {5, 5}, {5, 3}};

  std::printf("%4s %14s", "N", "baseline(n=N)");
  for (const auto& s : settings) std::printf("      %zu-%zu (mdl/sim)", s.k, s.n);
  std::printf("\n");

  bool mismatch = false;
  for (std::size_t N = 10; N <= max_n; N += 10) {
    std::printf("%4zu %14.2f", N,
                w.gigabits_for(analysis::one_layer_sac_cost(N)));
    for (const auto& s : settings) {
      const auto groups = analysis::subgroups_by_target_size(N, s.n);
      const double model_units =
          analysis::two_layer_ft_cost(groups, s.n, s.k);
      const double sim_units =
          core::simulate_aggregation_cost(groups, s.n - s.k).total_units;
      std::printf("      %7.2f/%7.2f", w.gigabits_for(model_units),
                  w.gigabits_for(sim_units));
      if (std::abs(sim_units - model_units) > 1e-9 * model_units) {
        std::fprintf(stderr,
                     "fig14: N=%zu %zu-%zu simulated %.3f |w|, model %.3f "
                     "|w|\n",
                     N, s.k, s.n, sim_units, model_units);
        mismatch = true;
      }
    }
    std::printf("\n");
  }

  std::printf("\nheadline ratios vs the baseline (paper values in "
              "parentheses):\n");
  struct Headline {
    std::size_t n, k, N;
    double paper;
  };
  for (const auto& h : std::vector<Headline>{{3, 3, 20, 8.84},
                                             {3, 3, 30, 14.75},
                                             {3, 2, 30, 10.36},
                                             {5, 3, 30, 4.29},
                                             {3, 3, 50, 23.80}}) {
    const auto groups = analysis::subgroups_by_target_size(h.N, h.n);
    const double ratio = analysis::one_layer_sac_cost(h.N) /
                         analysis::two_layer_ft_cost(groups, h.n, h.k);
    std::printf("  %zu-%zu, N=%2zu: %6.2fx (paper %.2fx)\n", h.k, h.n, h.N,
                ratio, h.paper);
  }

  // Traced + metered re-run of the 3-2, N=30 round (a setting with live
  // dropout tolerance) for offline inspection.
  sim::Simulator sim(77);
  sim.obs().trace.set_enabled(true);
  net::Network net(sim);
  core::simulate_aggregation_cost(
      net, analysis::subgroups_by_target_size(30, 3), 1);
  bench::export_observability(sim, args.get("trace-out", "fig14"));
  return mismatch ? 1 : 0;
}
