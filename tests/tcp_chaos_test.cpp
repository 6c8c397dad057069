// TCP chaos heal-soak: one scenario — a connection reset, a slow-writer
// throttle window, and a crash that outlives the suspicion grace —
// executed by chaos::run_heal_soak against the full FL system on real
// loopback sockets and on the deterministic simulator. Both backends
// must converge to the same final membership (everyone configured back
// in), the crashed peer must recover from its write-ahead log without
// any InstallSnapshot state transfer, and the trained accuracy must
// agree within tolerance.
//
// This is the cross-validation the transport-fault seam exists for: a
// chaos experiment designed in the simulator means something because
// the identical scenario, driven through the identical engine, produces
// the same healed end state over real sockets.
#include <gtest/gtest.h>

#include <unistd.h>

#include <string>

#include "chaos/soak.hpp"
#include "net/backend.hpp"

namespace p2pfl::chaos {
namespace {

constexpr std::uint64_t kSeed = 11;

std::string fresh_wal_dir(const char* tag) {
  static int counter = 0;
  return testing::TempDir() + "tcp_chaos_" + tag + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(counter++);
}

/// One backend's run of the scenario, plus its fault counters.
struct SoakRun {
  HealSoakResult res;
  std::uint64_t conn_resets = 0;
  std::uint64_t stall_windows = 0;
  std::uint64_t throttle_windows = 0;
};

SoakRun soak(const char* kind, std::size_t min_rounds) {
  HealSoakConfig cfg;
  cfg.min_rounds = min_rounds;
  cfg.seed = kSeed;
  cfg.wal_dir = fresh_wal_dir(kind);
  net::Backend backend(kind, cfg.peers, cfg.seed);
  SoakRun run;
  run.res = run_heal_soak(backend.net(), cfg);
  const obs::MetricsRegistry& m = backend.net().obs().metrics;
  run.conn_resets = m.counter_value("chaos.transport.conn_resets");
  run.stall_windows = m.counter_value("chaos.transport.stall_windows");
  run.throttle_windows = m.counter_value("chaos.transport.throttle_windows");

  const HealSoakResult& r = run.res;
  EXPECT_TRUE(r.stabilized);
  EXPECT_TRUE(r.healed) << kind << " soak never healed: rounds=" << r.rounds;
  EXPECT_TRUE(r.victim_evicted)
      << "the long crash must trip the failure detector";
  EXPECT_EQ(r.faults_injected, 4u);  // reset+throttle+crash+restart
  EXPECT_GE(r.rounds, min_rounds);
  // The victim restarted from its WAL and caught up by log append: a
  // snapshot install would mean the durable state was thrown away and
  // re-transferred, which is exactly what the WAL exists to avoid.
  EXPECT_TRUE(r.victim_recovered);
  EXPECT_EQ(r.victim_snapshot_installs, 0u);
  EXPECT_TRUE(r.ok());
  return run;
}

TEST(TcpChaosSoak, HealsLikeTheSimulatorAndRecoversFromWal) {
  // Twenty rounds: the heal lands about fifteen rounds in, and the
  // accuracy gate below needs the model trained a while longer.
  const SoakRun tcp = soak("tcp", 20);
  // The reset really tore sockets, and the throttle really gated the
  // writer — the TCP-native execution of the plan, not the sim model.
  EXPECT_GE(tcp.conn_resets, 1u);
  EXPECT_GE(tcp.throttle_windows, 1u);

  // The deterministic twin, driven to the real run's round count so the
  // two end states are comparable.
  const SoakRun sim = soak("sim", tcp.res.rounds);
  // On the sim path the reset is modeled as one stall per direction.
  EXPECT_GE(sim.stall_windows, 2u);

  // --- the headline cross-validation -------------------------------------
  // Identical final membership on both backends: every peer configured
  // back into its subgroup, one FedAvg representative per subgroup.
  const HealSoakConfig cfg;
  EXPECT_EQ(tcp.res.in_config, sim.res.in_config);
  EXPECT_EQ(tcp.res.in_config.size(), cfg.peers);
  EXPECT_EQ(tcp.res.fedavg_members, cfg.groups);
  EXPECT_EQ(sim.res.fedavg_members, cfg.groups);
  // And the model the healed cluster trained agrees across backends.
  EXPECT_NEAR(tcp.res.accuracy, sim.res.accuracy, 0.2);
  EXPECT_GT(tcp.res.accuracy, 0.4);
}

}  // namespace
}  // namespace p2pfl::chaos
