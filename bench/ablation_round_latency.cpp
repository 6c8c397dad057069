// Ablation (beyond the paper's byte counts): wall-clock latency of one
// aggregation round under a finite per-peer uplink. The paper's §VII
// analysis counts bytes; with a real NIC the *time* story is even more
// lopsided — in one-layer SAC every peer must push N-1 shares and N-1
// subtotals through its own uplink, while the two-layer system
// parallelizes across subgroups.
//
// Defaults: |w| = 5 MB (the Fig. 5 CNN), 100 Mbit/s uplinks, 15 ms
// latency, N = 30 — the transfer of one model takes 0.4 s.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/cost_model.hpp"
#include "bench/bench_util.hpp"
#include "core/agg_cost_sim.hpp"
#include "net/network.hpp"
#include "obs/critical_path.hpp"
#include "obs/export.hpp"
#include "sim/simulator.hpp"

int main(int argc, char** argv) {
  using namespace p2pfl;
  bench::Args args(argc, argv);
  const std::size_t N = static_cast<std::size_t>(args.get_int("peers", 30));
  const std::uint64_t wire =
      static_cast<std::uint64_t>(args.get_int("model-bytes", 5'000'000));
  const std::uint64_t mbps =
      static_cast<std::uint64_t>(args.get_int("uplink-mbps", 100));
  const std::uint64_t bps = mbps * 1'000'000 / 8;

  bench::print_environment("ablation — aggregation round latency vs m");
  std::printf("N=%zu, |w| = %.1f MB, uplink %llu Mbit/s (one transfer = "
              "%.0f ms)\n\n",
              N, static_cast<double>(wire) / 1e6,
              static_cast<unsigned long long>(mbps),
              static_cast<double>(wire) / static_cast<double>(bps) * 1e3);

  // Every round runs on a fresh simulator whose links have the uplink.
  const net::NetworkConfig link{.egress_bytes_per_sec = bps};
  const auto two_layer = [&](const std::vector<std::size_t>& groups,
                             std::size_t tolerance) {
    sim::Simulator sim(77);
    net::Network net(sim, link);
    return core::simulate_aggregation_cost(net, groups, tolerance, wire);
  };

  sim::Simulator one_sim(78);
  net::Network one_net(one_sim, link);
  const auto one = core::simulate_one_layer_latency(one_net, N, wire);
  std::printf("%-24s %14s %16s\n", "configuration", "aggregate ms",
              "all peers ms");
  std::printf("%-24s %14.0f %16.0f\n", "one-layer SAC (m=1)",
              one.aggregate_ms, one.all_received_ms);

  for (std::size_t m : {2u, 3u, 5u, 6u, 10u}) {
    if (m > N) break;
    const auto groups = analysis::subgroup_sizes(N, m);
    const auto two = two_layer(groups, 0);
    char label[32];
    std::snprintf(label, sizeof label, "two-layer m=%zu (n=%zu)", m,
                  groups.front());
    std::printf("%-24s %14.0f %16.0f   (%.2fx faster than 1-layer)\n",
                label, two.aggregate_ms, two.all_received_ms,
                one.all_received_ms / two.all_received_ms);
  }

  std::printf("\nwith fault tolerance (m=6, tolerance 1 -> more share "
              "replicas to push):\n");
  const auto groups = analysis::subgroup_sizes(N, 6);
  const auto ft = two_layer(groups, 1);
  std::printf("%-24s %14.0f %16.0f\n", "two-layer m=6, k=n-1",
              ft.aggregate_ms, ft.all_received_ms);

  // Where does the round latency go? Re-run the m=6 round with causal
  // span recording and attribute the FedAvg leader's commit latency to
  // protocol phases / links via the critical-path extractor. The phase
  // column sums exactly to the round latency.
  std::printf("\ncritical path of the m=6 round (span attribution):\n");
  sim::Simulator sim(77);
  sim.obs().spans.set_enabled(true);
  net::Network net(sim, link);
  core::simulate_aggregation_cost(net, groups, 1, wire);
  const obs::CriticalPath cp = obs::extract_critical_path(sim.obs().spans, 1);
  std::printf("%s", obs::critical_path_table(cp).c_str());
  const std::string spans_path =
      args.get("trace-out", "ablation") + ".spans.jsonl";
  obs::write_text_file(spans_path, obs::spans_jsonl(sim.obs().spans));
  std::fprintf(stderr, "# spans:   %s\n", spans_path.c_str());
  return 0;
}
