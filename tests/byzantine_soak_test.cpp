// Byzantine-under-churn soak on the full system: a persistent
// share-inconsistency adversary is detected, struck, denounced and
// evicted through the self-healing membership path while honest crash
// churn runs in the same window — across seeds, with zero honest peers
// suspected or banned, and with a fully deterministic timeline.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "chaos/soak.hpp"
#include "core/system.hpp"
#include "robust/attack.hpp"

namespace p2pfl::core {
namespace {

struct SoakRun {
  std::size_t rounds_completed = 0;
  std::map<PeerId, std::size_t> strikes;
  std::uint64_t suspected = 0;
  std::uint64_t denounced = 0;
  std::uint64_t join_or_rejoin_refused = 0;
  PeerId adversary = kNoPeer;
  PeerId churn_victim = kNoPeer;
  bool adversary_banned = false;
  bool adversary_in_config = true;
  bool churn_victim_banned = true;
  bool churn_victim_in_config = false;
  bool any_honest_banned = false;
};

SoakRun run_soak(std::uint64_t seed) {
  constexpr std::size_t kPeers = 12, kGroups = 3;
  sim::Simulator sim(seed);
  net::Network net(sim, {.base_latency = 15 * kMillisecond});
  const chaos::SyntheticTask task(kPeers, seed);

  robust::ByzantineRegistry registry;
  SystemConfig cfg;
  cfg.raft.raft.election_timeout_min = 50 * kMillisecond;
  cfg.raft.raft.election_timeout_max = 100 * kMillisecond;
  cfg.raft.fedavg_presence_poll = 100 * kMillisecond;
  cfg.round_interval = 1 * kSecond;
  cfg.train_duration = 100 * kMillisecond;
  cfg.learning_rate = 3e-3f;
  cfg.seed = seed;
  cfg.suspect_strike_limit = 2;
  cfg.agg.detect_byzantine = true;
  cfg.agg.byzantine = &registry;
  cfg.agg.robust.rule = robust::RobustRule::kTrimmedMean;
  P2pFlSystem sys(Topology::even(kPeers, kGroups), cfg, net, task.data.train,
                  task.data.test, task.parts,
                  [] { return fl::Model::mlp(64, {16}); });
  sys.start();
  net.transport().run_until([&] { return sys.rounds_completed() >= 2; },
                            30 * kSecond - sim.now(), 100 * kMillisecond);

  SoakRun out;
  // Adversary: a pure follower; churn victim: an honest follower from a
  // different subgroup, crashed mid-soak and restarted later.
  for (PeerId p : sys.raft().topology().all_peers()) {
    bool leads = p == sys.raft().fedavg_leader();
    for (SubgroupId g = 0; g < kGroups; ++g) {
      if (sys.raft().subgroup_leader(g) == p) leads = true;
    }
    if (leads) continue;
    if (out.adversary == kNoPeer) {
      out.adversary = p;
    } else if (out.churn_victim == kNoPeer &&
               sys.raft().topology().subgroup_of(p) !=
                   sys.raft().topology().subgroup_of(out.adversary)) {
      out.churn_victim = p;
    }
  }
  registry.activate(out.adversary,
                    {robust::AttackKind::kInconsistentShares, 10.0});

  sim.run_for(4 * kSecond);
  sys.crash_peer(out.churn_victim);
  sim.run_for(8 * kSecond);
  sys.restart_peer(out.churn_victim);
  sim.run_for(20 * kSecond);

  out.rounds_completed = sys.rounds_completed();
  out.strikes = sys.strikes();
  auto& metrics = sim.obs().metrics;
  out.suspected = metrics.counter("byzantine.suspected").value();
  out.denounced = metrics.counter("membership.denounced").value();
  out.join_or_rejoin_refused =
      metrics.counter("membership.rejoin_refused").value() +
      metrics.counter("membership.join_refused").value();
  out.adversary_banned = sys.raft().is_banned(out.adversary);
  out.churn_victim_banned = sys.raft().is_banned(out.churn_victim);
  for (PeerId p : sys.raft().banned()) {
    if (p != out.adversary) out.any_honest_banned = true;
  }
  const HealthReport hr = sys.raft().health(1);
  auto in_config = [&](PeerId p) {
    const SubgroupId g = sys.raft().topology().subgroup_of(p);
    const auto& c = hr.subgroups[g].config;
    return std::find(c.begin(), c.end(), p) != c.end();
  };
  out.adversary_in_config = in_config(out.adversary);
  out.churn_victim_in_config = in_config(out.churn_victim);
  return out;
}

TEST(ByzantineSoak, PersistentAdversaryContainedUnderChurnAcrossSeeds) {
  for (std::uint64_t seed : {3ull, 11ull}) {
    const SoakRun r = run_soak(seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    // Detection completeness: the adversary was caught repeatedly,
    // struck to the limit and denounced into eviction.
    EXPECT_GE(r.suspected, 2u) << "adversary " << r.adversary;
    EXPECT_GE(r.denounced, 1u);
    EXPECT_TRUE(r.adversary_banned);
    EXPECT_FALSE(r.adversary_in_config);
    // Zero false positives: only the adversary ever collects a strike,
    // and honest churn never escalates to a ban.
    for (const auto& [p, s] : r.strikes) EXPECT_EQ(p, r.adversary);
    EXPECT_FALSE(r.any_honest_banned);
    // The honest crashed peer heals back in (crash-eviction + rejoin is
    // PR-5 behavior, unharmed by the Byzantine layer).
    EXPECT_FALSE(r.churn_victim_banned);
    EXPECT_TRUE(r.churn_victim_in_config);
    // Aggregation kept making progress throughout.
    EXPECT_GE(r.rounds_completed, 15u);
  }
}

TEST(ByzantineSoak, TimelineIsDeterministic) {
  const SoakRun a = run_soak(7);
  const SoakRun b = run_soak(7);
  EXPECT_EQ(a.rounds_completed, b.rounds_completed);
  EXPECT_EQ(a.strikes, b.strikes);
  EXPECT_EQ(a.suspected, b.suspected);
  EXPECT_EQ(a.denounced, b.denounced);
  EXPECT_EQ(a.join_or_rejoin_refused, b.join_or_rejoin_refused);
  EXPECT_EQ(a.adversary, b.adversary);
  EXPECT_EQ(a.adversary_banned, b.adversary_banned);
  EXPECT_EQ(a.churn_victim_in_config, b.churn_victim_in_config);
}

}  // namespace
}  // namespace p2pfl::core
