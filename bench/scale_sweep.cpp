// Kernel scalability sweep (ROADMAP item 1 — OLYMPIA-style concrete
// scalability measurement of the secure-aggregation stack).
//
// Drives full two-layer aggregation rounds (SAC inside every subgroup,
// FedAvg across subgroup leaders, result fan-out) at large N on the
// pooled timer-wheel kernel and reports peers/sec, events/sec and wire
// bytes/sec as a JSON document (stdout + --out file, BENCH_-style
// machine-readable). A second section microbenchmarks raw kernel
// schedule/cancel and schedule/fire throughput against the retained
// naive binary-heap reference (src/sim/reference_queue.hpp) — the
// before/after numbers for the kernel swap. `peak_rss_mb` is the
// process's resident-set high-water mark after the sweep, before the
// micro-benchmarks allocate their own queues.
//
// CI runs `scale_sweep --n 1000` as a smoke test; the 10k/100k points
// run in the nightly scale job (see .github/workflows/ci.yml).
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "bench/json_util.hpp"
#include "core/topology.hpp"
#include "core/two_layer_agg.hpp"
#include "net/network.hpp"
#include "sim/reference_queue.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace p2pfl;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The process's peak resident set so far, in MB (getrusage reports KiB).
double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct SweepResult {
  std::size_t peers = 0;
  std::size_t groups = 0;
  std::size_t rounds = 0;
  bool completed = false;
  double wall_s = 0.0;
  double sim_ms = 0.0;
  std::uint64_t events = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t envelope_pool = 0;
  std::uint64_t event_pool = 0;
};

/// Full two-layer rounds at N peers: every subgroup runs SAC, leaders
/// FedAvg, the global model fans back out. Models are tiny vectors (the
/// kernel, not the arithmetic, is under test); byte accounting and
/// encode-verify stay on, so the wire numbers are the real protocol's.
SweepResult run_sweep(std::size_t n, std::size_t group_size,
                      std::size_t rounds, std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim, {.base_latency = 15 * kMillisecond});
  const core::Topology topo = core::Topology::by_group_size(n, group_size);
  core::TwoLayerAggregator agg(topo, core::AggregationConfig{}, net);

  SweepResult out;
  out.peers = topo.peer_count();
  out.groups = topo.subgroup_count();
  out.rounds = rounds;

  std::size_t completed_rounds = 0;
  agg.on_global_model = [&](core::TwoLayerAggregator::RoundId,
                            const secagg::Vector&,
                            std::size_t) { ++completed_rounds; };

  const core::RoundLeadership lead = core::RoundLeadership::designated(topo);
  constexpr std::size_t kDim = 4;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 1; r <= rounds; ++r) {
    agg.begin_round(r, lead, [&](PeerId p) {
      secagg::Vector v(kDim);
      for (std::size_t i = 0; i < kDim; ++i) {
        v[i] = static_cast<float>((p + i) % 17) * 0.25f;
      }
      return v;
    });
    sim.run();
  }
  out.wall_s = seconds_since(t0);
  out.completed = completed_rounds == rounds;
  out.sim_ms = to_ms(sim.now());
  out.events = sim.obs().metrics.counter("sim.events_dispatched").value();
  out.wire_bytes = net.stats().sent.bytes;
  out.envelope_pool = net.envelope_pool_slots();
  out.event_pool = sim.pool_slot_count();
  return out;
}

/// Raw kernel churn: a ring of outstanding timers, each new schedule
/// cancelling the oldest — the Raft election-timeout reset pattern.
template <class Kernel>
double schedule_cancel_ops_per_sec(Kernel& k, std::size_t ops) {
  constexpr std::size_t kRing = 1024;
  std::vector<std::uint64_t> ring(kRing, 0);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    const SimDuration delay =
        static_cast<SimDuration>((i * 131) % (150 * kMillisecond));
    const std::size_t at = i % kRing;
    if (ring[at] != 0) k.cancel(ring[at]);
    ring[at] = k.schedule_after(delay, [] {});
    if (i % 8192 == 8191) k.run_for(kMillisecond);
  }
  k.run();
  return static_cast<double>(ops) / seconds_since(t0);
}

/// Raw kernel dispatch: schedule a batch at mixed horizons, drain it.
template <class Kernel>
double schedule_fire_ops_per_sec(Kernel& k, std::size_t ops) {
  const auto t0 = std::chrono::steady_clock::now();
  constexpr std::size_t kBatch = 65536;
  std::size_t done = 0;
  while (done < ops) {
    const std::size_t batch = std::min(kBatch, ops - done);
    for (std::size_t i = 0; i < batch; ++i) {
      const SimDuration delay =
          static_cast<SimDuration>((i * 977) % (400 * kMillisecond));
      k.schedule_after(delay, [] {});
    }
    k.run();
    done += batch;
  }
  return static_cast<double>(ops) / seconds_since(t0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p2pfl;
  bench::Args args(argc, argv);
  const std::size_t n = static_cast<std::size_t>(args.get_int("n", 1000));
  const std::size_t group_size =
      static_cast<std::size_t>(args.get_int("group-size", 32));
  const std::size_t rounds =
      static_cast<std::size_t>(args.get_int("rounds", 1));
  const std::size_t micro_ops =
      static_cast<std::size_t>(args.get_int("micro-ops", 1'000'000));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 42));
  const std::string out_path =
      args.get("out", P2PFL_REPO_ROOT "/BENCH_scale.json");

  std::fprintf(stderr, "scale_sweep: N=%zu group_size=%zu rounds=%zu ...\n",
               n, group_size, rounds);
  const SweepResult s = run_sweep(n, group_size, rounds, seed);
  const double sweep_rss_mb = peak_rss_mb();

  double micro_wheel_sc = 0, micro_wheel_sf = 0;
  double micro_naive_sc = 0, micro_naive_sf = 0;
  if (micro_ops > 0) {
    sim::Simulator wheel_a(1);
    micro_wheel_sc = schedule_cancel_ops_per_sec(wheel_a, micro_ops);
    sim::Simulator wheel_b(1);
    micro_wheel_sf = schedule_fire_ops_per_sec(wheel_b, micro_ops);
    sim::ReferenceQueue naive_a;
    micro_naive_sc = schedule_cancel_ops_per_sec(naive_a, micro_ops);
    sim::ReferenceQueue naive_b;
    micro_naive_sf = schedule_fire_ops_per_sec(naive_b, micro_ops);
  }

  bench::JsonWriter w = bench::bench_document("scale_sweep");
  w.field_u64("n", s.peers)
      .field_u64("group_size", group_size)
      .field_u64("groups", s.groups)
      .field_u64("rounds", s.rounds)
      .field_bool("completed", s.completed)
      .field_double("wall_s", s.wall_s, "%.6f")
      .field_double("sim_ms", s.sim_ms, "%.3f")
      .field_double("peers_per_sec",
                    static_cast<double>(s.peers * s.rounds) / s.wall_s,
                    "%.1f")
      .field_u64("events", s.events)
      .field_double("events_per_sec",
                    static_cast<double>(s.events) / s.wall_s, "%.1f")
      .field_u64("wire_bytes", s.wire_bytes)
      .field_double("wire_bytes_per_sec",
                    static_cast<double>(s.wire_bytes) / s.wall_s, "%.1f")
      .field_u64("event_pool_slots", s.event_pool)
      .field_u64("envelope_pool_slots", s.envelope_pool)
      .field_double("peak_rss_mb", sweep_rss_mb, "%.1f");
  w.key("micro").object_begin().field_u64("ops", micro_ops);
  w.key("wheel")
      .object_begin()
      .field_double("schedule_cancel_per_sec", micro_wheel_sc, "%.1f")
      .field_double("schedule_fire_per_sec", micro_wheel_sf, "%.1f")
      .object_end();
  w.key("naive_heap")
      .object_begin()
      .field_double("schedule_cancel_per_sec", micro_naive_sc, "%.1f")
      .field_double("schedule_fire_per_sec", micro_naive_sf, "%.1f")
      .object_end();
  w.key("speedup")
      .object_begin()
      .field_double("schedule_cancel",
                    micro_naive_sc > 0 ? micro_wheel_sc / micro_naive_sc
                                       : 0.0,
                    "%.2f")
      .field_double("schedule_fire",
                    micro_naive_sf > 0 ? micro_wheel_sf / micro_naive_sf
                                       : 0.0,
                    "%.2f")
      .object_end()
      .object_end()
      .object_end();

  const int emit_rc = bench::emit_bench_json(w.str(), out_path, "scale_sweep");
  if (emit_rc != 0) return emit_rc;
  if (!s.completed) {
    std::fprintf(stderr,
                 "scale_sweep: round did not complete (%zu peers)\n",
                 s.peers);
    return 1;
  }
  return 0;
}
