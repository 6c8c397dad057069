// Figs. 6 and 7: test accuracy (Fig. 6), then training loss (Fig. 7),
// of the two-layer SAC vs the one-layer SAC baseline, from one set of
// runs. N = 10 peers, subgroups of n = 3, 5, 10 (n = 10 is the original
// SAC), under IID / Non-IID(5%) / Non-IID(0%) data.
//
// The paper's claims to reproduce: the curves for different n coincide
// (accuracy differences < ~2%, and the loss curves per distribution),
// and IID > Non-IID(5%) > Non-IID(0%).
#include <cstdio>

#include "bench/fl_series_common.hpp"

int main(int argc, char** argv) {
  using namespace p2pfl;
  bench::Args args(argc, argv);
  bench::print_environment("Fig. 6 — two-layer SAC vs baseline, test accuracy");

  const core::FlExperimentConfig base = bench::base_config_from_args(args);
  std::vector<bench::SeriesResult> series;
  for (const auto dist : bench::all_distributions()) {
    for (const std::size_t n : {3u, 5u, 10u}) {
      core::FlExperimentConfig cfg = base;
      cfg.distribution = dist;
      if (n >= cfg.peers) {
        cfg.aggregation = core::AggregationKind::kOneLayerSac;  // baseline
      } else {
        cfg.aggregation = core::AggregationKind::kTwoLayerSac;
        cfg.group_size = n;
      }
      const std::string label = std::string(core::distribution_name(dist)) +
                                (n >= cfg.peers ? " baseline(n=N)"
                                                : " n=" + std::to_string(n));
      std::fprintf(stderr, "running %s...\n", label.c_str());
      series.push_back(bench::run_series(cfg, label));
    }
  }
  bench::print_table(series, /*accuracy=*/true);
  bench::print_summary(series);

  // The headline comparison: per distribution, max accuracy spread
  // across n must stay small (paper: < 2% in most cases).
  std::printf("\naccuracy spread across n per distribution:\n");
  for (std::size_t d = 0; d < 3; ++d) {
    double lo = 1.0, hi = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
      const double a = series[d * 3 + i].final_accuracy;
      lo = std::min(lo, a);
      hi = std::max(hi, a);
    }
    std::printf("  %-12s spread %.2f%%\n",
                core::distribution_name(bench::all_distributions()[d]),
                (hi - lo) * 100.0);
  }

  std::printf("\n== Fig. 7 — training loss of the same runs ==\n");
  bench::print_table(series, /*accuracy=*/false);
  return 0;
}
