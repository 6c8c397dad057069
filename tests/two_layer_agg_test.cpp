#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "core/two_layer_agg.hpp"
#include "fixed_leader_round.hpp"
#include "robust/rules.hpp"
#include "secagg/sac.hpp"

namespace p2pfl::core {
namespace {

struct AggHarness {
  AggHarness(std::size_t peers, std::size_t groups, AggregationConfig cfg,
             std::uint64_t seed = 9)
      : topo(Topology::even(peers, groups)),
        sim(seed),
        net(sim, {.base_latency = 15 * kMillisecond}),
        agg(topo, cfg, net) {
    agg.on_global_model = [this](std::uint64_t, const secagg::Vector& g,
                                 std::size_t used) {
      global = g;
      groups_used = used;
    };
    agg.on_model_received = [this](std::uint64_t, PeerId p,
                                   const secagg::Vector& g) {
      received[p] = g;
    };
    agg.on_round_failed = [this](std::uint64_t) { failed = true; };
  }

  void begin(std::uint64_t round = 1) {
    // Peer p contributes the constant vector (p+1).
    agg.begin_round(round, RoundLeadership::designated(topo), [](PeerId p) {
      return secagg::Vector(4, static_cast<float>(p + 1));
    });
  }

  Topology topo;
  sim::Simulator sim;
  net::Network net;
  TwoLayerAggregator agg;
  std::optional<secagg::Vector> global;
  std::size_t groups_used = 0;
  std::map<PeerId, secagg::Vector> received;
  bool failed = false;
};

TEST(TwoLayerAgg, GlobalModelIsPeerCountWeightedMean) {
  AggregationConfig cfg;
  AggHarness h(9, 3, cfg);
  h.begin();
  h.sim.run();
  ASSERT_TRUE(h.global.has_value());
  EXPECT_EQ(h.groups_used, 3u);
  // Equal groups and the weighting by n make this the global mean: 5.0.
  EXPECT_NEAR((*h.global)[0], 5.0f, 1e-4f);
}

TEST(TwoLayerAgg, EveryPeerGetsResult) {
  AggregationConfig cfg;
  AggHarness h(10, 3, cfg);  // uneven groups 4/3/3
  h.begin();
  h.sim.run();
  ASSERT_TRUE(h.global.has_value());
  EXPECT_EQ(h.received.size(), 10u);
  for (const auto& [p, g] : h.received) EXPECT_EQ(g, *h.global);
  // Uneven weighting: mean of group means weighted by size = global mean
  // = 5.5.
  EXPECT_NEAR((*h.global)[0], 5.5f, 1e-4f);
}

TEST(TwoLayerAgg, FractionHalfAggregatesSubsetOfGroups) {
  AggregationConfig cfg;
  cfg.fraction_p = 0.5;
  AggHarness h(12, 4, cfg);
  h.begin();
  h.sim.run();
  ASSERT_TRUE(h.global.has_value());
  EXPECT_EQ(h.groups_used, 2u);  // ceil(0.5 * 4)
  // All peers still receive the result.
  EXPECT_EQ(h.received.size(), 12u);
}

TEST(TwoLayerAgg, SlowSubgroupExcludedByTimeout) {
  AggregationConfig cfg;
  cfg.collect_timeout = 500 * kMillisecond;
  AggHarness h(9, 3, cfg);
  // Make subgroup 2's leader-to-fed link crawl: its upload misses the
  // timeout.
  h.net.set_link_delay(h.topo.group(2).front(),
                       h.topo.group(0).front(), 5 * kSecond);
  h.begin();
  h.sim.run_for(20 * kSecond);
  ASSERT_TRUE(h.global.has_value());
  EXPECT_EQ(h.groups_used, 2u);
  // Mean over groups 0 and 1 only: peers 1..6 -> 3.5.
  EXPECT_NEAR((*h.global)[0], 3.5f, 1e-4f);
}

TEST(TwoLayerAgg, DropoutAfterShareWithToleranceStillIncludesModel) {
  AggregationConfig cfg;
  cfg.sac_dropout_tolerance = 1;
  cfg.sac_subtotal_timeout = 100 * kMillisecond;
  AggHarness h(9, 3, cfg);
  h.begin();
  // Crash a follower of subgroup 1 after shares are in flight.
  h.sim.run_for(1 * kMillisecond);
  const PeerId victim = h.topo.group(1)[1];
  h.net.crash(victim);
  h.sim.run_for(30 * kSecond);
  ASSERT_TRUE(h.global.has_value());
  EXPECT_EQ(h.groups_used, 3u);
  // The victim's model still contributes: global mean stays 5.0.
  EXPECT_NEAR((*h.global)[0], 5.0f, 1e-4f);
}

TEST(TwoLayerAgg, CrashedPeersExcludedFromRoundStart) {
  AggregationConfig cfg;
  AggHarness h(9, 3, cfg);
  // A follower of group 0 is already dead when the round begins.
  h.net.crash(h.topo.group(0)[2]);
  h.begin();
  h.sim.run_for(20 * kSecond);
  ASSERT_TRUE(h.global.has_value());
  // Group 0 aggregated peers 0, 1 (values 1, 2), weighted by 2.
  // Groups: (1+2)/2 * 2, (4+5+6)/3 * 3, (7+8+9)/3 * 3 over weight 8.
  const double expected = (1.5 * 2 + 5.0 * 3 + 8.0 * 3) / 8.0;
  EXPECT_NEAR((*h.global)[0], expected, 1e-4);
  EXPECT_EQ(h.received.size(), 8u);  // dead peer gets nothing
}

TEST(TwoLayerAgg, RoundFailsWhenNoUploadArrives) {
  AggregationConfig cfg;
  cfg.collect_timeout = 300 * kMillisecond;
  cfg.sac_share_timeout = 10 * kSecond;  // keep SAC from finishing
  AggHarness h(6, 2, cfg);
  // Sever every link toward the FedAvg leader's host except self.
  for (PeerId p : h.topo.all_peers()) {
    if (p != 0) h.net.block_link(p, 0);
  }
  // ...including intra-group shares so even its own SAC stalls.
  h.begin();
  h.sim.run_for(5 * kSecond);
  EXPECT_FALSE(h.global.has_value());
  EXPECT_TRUE(h.failed);
}

TEST(TwoLayerAgg, NewRoundSupersedesOldOne) {
  AggregationConfig cfg;
  AggHarness h(6, 2, cfg);
  h.begin(1);
  h.sim.run_for(1 * kMillisecond);
  h.begin(2);  // abort + restart
  h.sim.run();
  ASSERT_TRUE(h.global.has_value());
  EXPECT_EQ(h.received.size(), 6u);
}

// run_fl_experiment aggregates with math alone: SAC per subgroup, then
// the FedAvg rule weighted by subgroup size. It stays only as an oracle
// the engine must agree with, fed the same per-peer models.
void check_engine_matches_math_loop(const Topology& topo,
                                    std::size_t tolerance) {
  SCOPED_TRACE("peers=" + std::to_string(topo.peer_count()) +
               " groups=" + std::to_string(topo.subgroup_count()) +
               " tol=" + std::to_string(tolerance));
  Rng rng(17);
  std::vector<secagg::Vector> models(topo.peer_count(),
                                     secagg::Vector(64));
  for (secagg::Vector& w : models) {
    for (float& x : w) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  }

  std::vector<std::vector<float>> group_avgs;
  std::vector<double> group_weights;
  for (SubgroupId g = 0; g < topo.subgroup_count(); ++g) {
    std::vector<secagg::Vector> members;
    for (PeerId p : topo.group(g)) members.push_back(models[p]);
    const std::size_t n = members.size();
    const std::size_t k = n > tolerance ? n - tolerance : 1;
    if (k == n) {
      group_avgs.push_back(secagg::sac_average(members, rng));
    } else {
      secagg::FtSacResult ft = secagg::fault_tolerant_sac_average(
          members, k, std::vector<bool>(n, false), rng);
      ASSERT_TRUE(ft.ok);
      group_avgs.push_back(std::move(ft.average));
    }
    group_weights.push_back(static_cast<double>(n));
  }
  const std::vector<float> oracle =
      robust::aggregate(group_avgs, group_weights, robust::RobustConfig{});

  sim::Simulator sim(23);
  net::Network net(sim);
  const FixedLeaderRound run(net, topo, sac_config(tolerance),
                             [&](PeerId p) { return models[p]; });
  ASSERT_TRUE(run.completed);
  ASSERT_EQ(run.global.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_NEAR(run.global[i], oracle[i], 1e-5) << "element " << i;
  }
}

TEST(TwoLayerAgg, EngineMatchesMathLoopOracle) {
  check_engine_matches_math_loop(Topology::even(12, 3), 0);  // n of n
  check_engine_matches_math_loop(Topology::even(12, 3), 1);  // k of n
  check_engine_matches_math_loop(Topology::even(11, 3), 0);  // 4, 4, 3
  check_engine_matches_math_loop(Topology::even(14, 3), 1);  // 5, 5, 4
}

}  // namespace
}  // namespace p2pfl::core
