// Fig. 13: total communication cost per aggregation vs. subgroup count m
// (N = 30 peers, 1.25M-parameter CNN), plus the §VII-A headline numbers.
//
// Two independent sources must agree: the closed-form cost model and the
// bytes actually counted by the network simulator while the two-layer
// aggregation protocol runs (SAC shares + subtotals + FedAvg uploads +
// result broadcasts). The binary prints both columns and exits 1 if any
// row's simulated |w| count differs from its closed form.
#include <cmath>
#include <cstdio>

#include "analysis/cost_model.hpp"
#include "bench/bench_util.hpp"
#include "bench/obs_util.hpp"
#include "core/agg_cost_sim.hpp"
#include "net/network.hpp"

int main(int argc, char** argv) {
  using namespace p2pfl;
  bench::Args args(argc, argv);
  const std::size_t N = static_cast<std::size_t>(args.get_int("peers", 30));
  const analysis::ModelSize w{
      static_cast<std::uint64_t>(args.get_int("params", 1'250'000))};

  bench::print_environment("Fig. 13 — communication cost per aggregation vs m");
  std::printf("N=%zu peers, |w| = %.0f Mb (%llu params)\n\n", N, w.megabits(),
              static_cast<unsigned long long>(w.params));
  std::printf("%4s %6s %14s %14s %12s\n", "m", "n", "model (Gb)",
              "simulated (Gb)", "vs 1-layer");

  const double baseline_units = analysis::one_layer_sac_cost(N);
  bool mismatch = false;
  for (std::size_t m = 1; m <= N; ++m) {
    const auto groups = analysis::subgroup_sizes(N, m);
    const double units = m == N
                             ? 2.0 * static_cast<double>(N - 1)
                             : analysis::two_layer_cost(groups);
    // m = N degenerates to plain FedAvg: N-1 uploads + N-1 downloads.
    const double sim_units =
        core::simulate_aggregation_cost(groups, 0).total_units;
    const double gb = w.gigabits_for(units);
    std::printf("%4zu %6zu %14.3f %14.3f %11.2fx\n", m, groups.front(), gb,
                m == N ? gb : w.gigabits_for(sim_units),
                baseline_units / units);
    if (std::abs(sim_units - units) > 1e-9 * units) {
      std::fprintf(stderr, "fig13: m=%zu simulated %.3f |w|, model %.3f |w|\n",
                   m, sim_units, units);
      mismatch = true;
    }
  }

  const auto g6 = analysis::subgroup_sizes(N, 6);
  std::printf("\nheadline: m=6 cost %.2f Gb (paper: 7.12 Gb), "
              "%.2fx below one-layer SAC (paper: ~10x)\n",
              w.gigabits_for(analysis::two_layer_cost(g6)),
              baseline_units / analysis::two_layer_cost(g6));

  // Traced + metered re-run of the m=6 round for offline inspection.
  sim::Simulator sim(77);
  sim.obs().trace.set_enabled(true);
  net::Network net(sim);
  core::simulate_aggregation_cost(net, g6, 0);
  bench::export_observability(sim, args.get("trace-out", "fig13"));
  return mismatch ? 1 : 0;
}
