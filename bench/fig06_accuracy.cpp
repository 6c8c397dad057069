// Figs. 6 and 7: test accuracy (Fig. 6), then training loss (Fig. 7),
// of the two-layer SAC vs the one-layer SAC baseline, from one set of
// runs. N = 10 peers, subgroups of n = 3, 5, 10 (n = 10 is the original
// SAC), under IID / Non-IID(5%) / Non-IID(0%) data.
//
// The paper's claims to reproduce: the curves for different n coincide
// (accuracy differences < ~2%, and the loss curves per distribution),
// and IID > Non-IID(5%) > Non-IID(0%). Both accuracy claims are gated:
// the run exits 1, naming the distribution on stderr, when a
// distribution's final accuracies across n spread more than 2 points or
// the distributions' mean final accuracies are out of that order.
#include <cstdio>
#include <string>
#include <vector>

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
  constexpr double kMaxSpreadPoints = 2.0;
  const std::vector<core::DataDistribution> dists = bench::all_distributions();
  std::vector<double> mean_pct(dists.size(), 0.0);
  std::vector<std::string> misses;
  char miss[160];
  std::printf("\naccuracy spread across n per distribution:\n");
  for (std::size_t d = 0; d < dists.size(); ++d) {
    double lo = 1.0, hi = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
      const double a = series[d * 3 + i].final_accuracy;
      lo = std::min(lo, a);
      hi = std::max(hi, a);
      mean_pct[d] += a * 100.0 / 3.0;
    }
    const char* name = core::distribution_name(dists[d]);
    const double spread = (hi - lo) * 100.0;
    std::printf("  %-12s spread %.2f%%\n", name, spread);
    if (spread > kMaxSpreadPoints) {
      std::snprintf(miss, sizeof miss,
                    "%s: final accuracy spreads %.2f points across n "
                    "(claim: at most %.0f)",
                    name, spread, kMaxSpreadPoints);
      misses.emplace_back(miss);
    }
  }
  // IID > Non-IID(5%) > Non-IID(0%), on each distribution's mean over n.
  for (std::size_t d = 0; d + 1 < dists.size(); ++d) {
    if (mean_pct[d] <= mean_pct[d + 1]) {
      std::snprintf(miss, sizeof miss,
                    "%s: mean final accuracy %.2f%% is not above %s's "
                    "%.2f%%",
                    core::distribution_name(dists[d]), mean_pct[d],
                    core::distribution_name(dists[d + 1]), mean_pct[d + 1]);
      misses.emplace_back(miss);
    }
  }

  std::printf("\n== Fig. 7 — training loss of the same runs ==\n");
  bench::print_table(series, /*accuracy=*/false);
  for (const std::string& miss : misses) {
    std::fprintf(stderr, "fig06: claim missed: %s\n", miss.c_str());
  }
  return misses.empty() ? 0 : 1;
}
