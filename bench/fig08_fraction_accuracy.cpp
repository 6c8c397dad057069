// Figs. 8 and 9: resilience to slow subgroups — test accuracy (Fig. 8),
// then training loss (Fig. 9), from one set of runs, when the FedAvg
// leader aggregates only a fraction p of the subgroup models (N = 20,
// n = 5, p = 0.5 vs 1.0) under the three data distributions.
//
// Claims to reproduce: p = 0.5 tracks p = 1 closely (paper: average
// accuracy gap 2.18% across distributions), and so do the loss curves.
#include <cmath>
#include <cstdio>

#include "bench/fl_series_common.hpp"

int main(int argc, char** argv) {
  using namespace p2pfl;
  bench::Args args(argc, argv);
  bench::print_environment("Fig. 8 — slow-subgroup fraction, test accuracy");

  core::FlExperimentConfig base = bench::base_config_from_args(args);
  base.peers = static_cast<std::size_t>(args.get_int("peers", 20));
  base.group_size = static_cast<std::size_t>(args.get_int("n", 5));
  base.aggregation = core::AggregationKind::kTwoLayerSac;
  base.data.train_samples = static_cast<std::size_t>(
      args.get_int("samples", 4000));

  std::vector<bench::SeriesResult> series;
  for (const auto dist : bench::all_distributions()) {
    for (const double p : {1.0, 0.5}) {
      core::FlExperimentConfig cfg = base;
      cfg.distribution = dist;
      cfg.fraction_p = p;
      char label[64];
      std::snprintf(label, sizeof label, "%s p=%.1f",
                    core::distribution_name(dist), p);
      std::fprintf(stderr, "running %s...\n", label);
      series.push_back(bench::run_series(cfg, label));
    }
  }
  bench::print_table(series, /*accuracy=*/true);
  bench::print_summary(series);

  double gap_sum = 0.0;
  for (std::size_t d = 0; d < 3; ++d) {
    const double full = series[d * 2].final_accuracy;
    const double half = series[d * 2 + 1].final_accuracy;
    gap_sum += std::abs(full - half);
  }
  std::printf("\naverage |acc(p=1) - acc(p=0.5)| over distributions: %.2f%% "
              "(paper: 2.18%%)\n",
              gap_sum / 3.0 * 100.0);

  std::printf("\n== Fig. 9 — training loss of the same runs ==\n");
  bench::print_table(series, /*accuracy=*/false);
  return 0;
}
