#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "analysis/cost_model.hpp"
#include "core/agg_cost_sim.hpp"
#include "sim/simulator.hpp"

namespace p2pfl::analysis {
namespace {

TEST(SubgroupSizes, EvenSplit) {
  EXPECT_EQ(subgroup_sizes(30, 6),
            (std::vector<std::size_t>{5, 5, 5, 5, 5, 5}));
}

TEST(SubgroupSizes, RemainderSpreadEvenly) {
  // Fig. 13 caption example: N=30, m=4 -> two groups of 8, two of 7.
  EXPECT_EQ(subgroup_sizes(30, 4), (std::vector<std::size_t>{8, 8, 7, 7}));
}

TEST(SubgroupSizes, ByTargetSize) {
  // §VII-B: n=3, N=20 -> m=6 groups sized (4,4,3,3,3,3).
  EXPECT_EQ(subgroups_by_target_size(20, 3),
            (std::vector<std::size_t>{4, 4, 3, 3, 3, 3}));
}

TEST(CostModel, OneLayerSacQuadratic) {
  EXPECT_DOUBLE_EQ(one_layer_sac_cost(30), 2.0 * 30 * 29);
  EXPECT_DOUBLE_EQ(one_layer_sac_cost(10), 180.0);
}

TEST(CostModel, Eq4MatchesGeneralFormOnEvenGroups) {
  for (std::size_t m : {1u, 2u, 5u, 6u, 10u}) {
    for (std::size_t n : {2u, 3u, 5u, 8u}) {
      const std::vector<std::size_t> groups(m, n);
      EXPECT_DOUBLE_EQ(two_layer_cost(groups), two_layer_cost_eq4(m, n))
          << "m=" << m << " n=" << n;
    }
  }
}

TEST(CostModel, Eq5MatchesGeneralFormOnEvenGroups) {
  for (std::size_t m : {2u, 5u, 10u}) {
    for (std::size_t n : {3u, 5u}) {
      for (std::size_t k = 1; k <= n; ++k) {
        const std::vector<std::size_t> groups(m, n);
        EXPECT_DOUBLE_EQ(two_layer_ft_cost(groups, n, k),
                         two_layer_ft_cost_eq5(m * n, m, n, k))
            << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(CostModel, FtWithKEqualsNReducesToPlainTwoLayer) {
  for (std::size_t m : {1u, 3u, 6u}) {
    for (std::size_t n : {2u, 3u, 5u}) {
      const std::vector<std::size_t> groups(m, n);
      EXPECT_DOUBLE_EQ(two_layer_ft_cost(groups, n, n), two_layer_cost(groups));
    }
  }
}

// --- the paper's headline numbers --------------------------------------------

TEST(PaperNumbers, Fig13CostAtM6Is7_12Gb) {
  // §VII-A: N=30, m=6 -> 7.12 Gb with the 1.25M-parameter CNN.
  const ModelSize w;  // 1.25M params
  const auto groups = subgroup_sizes(30, 6);
  const double gb = w.gigabits_for(two_layer_cost(groups));
  EXPECT_NEAR(gb, 7.12, 0.005);
}

TEST(PaperNumbers, AboutTenfoldReductionAtM6) {
  const auto groups = subgroup_sizes(30, 6);
  const double ratio = one_layer_sac_cost(30) / two_layer_cost(groups);
  EXPECT_NEAR(ratio, 10.0, 0.3);  // "about one-tenth of the one-layer SAC"
}

TEST(PaperNumbers, Ratio884xForN3K3Peers20) {
  const auto groups = subgroups_by_target_size(20, 3);
  const double ratio = one_layer_sac_cost(20) / two_layer_ft_cost(groups, 3, 3);
  EXPECT_NEAR(ratio, 8.84, 0.01);
}

TEST(PaperNumbers, Ratio1475xForN3K3Peers30) {
  const auto groups = subgroups_by_target_size(30, 3);
  const double ratio = one_layer_sac_cost(30) / two_layer_ft_cost(groups, 3, 3);
  EXPECT_NEAR(ratio, 14.75, 0.01);
}

TEST(PaperNumbers, Ratio1036xForN3K2Peers30) {
  // The abstract's headline: 10.36x with fault tolerance at 30 peers.
  const auto groups = subgroups_by_target_size(30, 3);
  const double ratio = one_layer_sac_cost(30) / two_layer_ft_cost(groups, 3, 2);
  EXPECT_NEAR(ratio, 10.36, 0.01);
}

TEST(PaperNumbers, Ratio429xForN5K3Peers30) {
  const auto groups = subgroups_by_target_size(30, 5);
  const double ratio = one_layer_sac_cost(30) / two_layer_ft_cost(groups, 5, 3);
  EXPECT_NEAR(ratio, 4.29, 0.01);
}

TEST(PaperNumbers, Ratio2380xAnd8_24GbForN3K3Peers50) {
  const ModelSize w;
  const auto groups = subgroups_by_target_size(50, 3);
  const double units = two_layer_ft_cost(groups, 3, 3);
  EXPECT_NEAR(one_layer_sac_cost(50) / units, 23.80, 0.02);
  EXPECT_NEAR(w.gigabits_for(units), 8.24, 0.005);
  // The paper reports 196.13 Gb; with |w| = exactly 40 Mb the formula
  // gives 196.00 (their CNN has ~1,250,8xx params, rounded to 1.25M).
  EXPECT_NEAR(w.gigabits_for(one_layer_sac_cost(50)), 196.13, 0.2);
}

// --- multilayer (§VII-C) -------------------------------------------------------

TEST(Multilayer, PeerCountEq6) {
  EXPECT_EQ(multilayer_peers(3, 1), 3u);
  EXPECT_EQ(multilayer_peers(3, 2), 3u + 3u * 2u);
  EXPECT_EQ(multilayer_peers(3, 3), 3u + 6u + 12u);
  EXPECT_EQ(multilayer_peers(5, 2), 5u + 20u);
}

TEST(Multilayer, CostEq10) {
  for (std::size_t n : {3u, 4u, 5u}) {
    for (std::size_t layers : {1u, 2u, 3u}) {
      const double N = static_cast<double>(multilayer_peers(n, layers));
      EXPECT_DOUBLE_EQ(multilayer_cost(n, layers),
                       (N - 1.0) * (static_cast<double>(n) + 2.0));
    }
  }
}

TEST(Multilayer, SingleLayerConsistentWithTwoLayerFormula) {
  // X=1 is one SAC group of n peers plus the (n-1) result broadcast.
  // Eq. 10 gives (n-1)(n+2) = n^2+n-2 = two_layer_cost_eq4(1, n).
  for (std::size_t n : {3u, 5u, 7u}) {
    EXPECT_DOUBLE_EQ(multilayer_cost(n, 1), two_layer_cost_eq4(1, n));
  }
}

// --- fault tolerance (§VII-D) ---------------------------------------------------

TEST(FaultTolerance, RaftMajorities) {
  EXPECT_EQ(raft_tolerance(1), 0u);
  EXPECT_EQ(raft_tolerance(3), 1u);
  EXPECT_EQ(raft_tolerance(4), 1u);
  EXPECT_EQ(raft_tolerance(5), 2u);
}

TEST(FaultTolerance, OptimisticBound) {
  // m subgroups of n: each may lose a minority plus the leader slot is
  // refillable -> m(⌊(n-1)/2⌋ + 1).
  EXPECT_EQ(two_layer_optimistic_tolerance(5, 5), 5u * 3u);
  EXPECT_EQ(two_layer_optimistic_tolerance(6, 5), 18u);
}

TEST(FaultTolerance, FatalFedAvgLeaderCrashes) {
  EXPECT_EQ(fedavg_fatal_leader_crashes(5), 3u);
  EXPECT_EQ(fedavg_fatal_leader_crashes(3), 2u);
}

TEST(ModelSizeUnits, PaperCnnIs40MbPerTransfer) {
  const ModelSize w;
  EXPECT_EQ(w.bytes(), 5'000'000u);
  EXPECT_DOUBLE_EQ(w.megabits(), 40.0);
}

// --- closed form vs the metrics registry -----------------------------------

TEST(CostModelVsMetrics, Eq4MatchesNetSentPayloadCounter) {
  // Third, independent measurement of the Fig. 13 byte counts: the
  // network's metrics-registry payload counter (not TrafficStats) must
  // equal Eq. (4)'s closed form times the synthetic |w| in a fault-free
  // round. The total wire counter additionally carries the per-message
  // framing, so it strictly exceeds the model payload.
  for (const auto& [m, n] : std::vector<std::pair<std::size_t, std::size_t>>{
           {2, 3}, {5, 5}, {6, 4}}) {
    const std::vector<std::size_t> groups(m, n);
    sim::Simulator sim(77);
    net::Network net(sim);
    const auto breakdown = core::simulate_aggregation_cost(net, groups, 0);
    ASSERT_TRUE(breakdown.completed) << "m=" << m << " n=" << n;
    const std::uint64_t metered_payload =
        sim.obs().metrics.counter("net.sent.payload").value();
    const std::uint64_t metered_wire =
        sim.obs().metrics.counter("net.sent.bytes").value();
    const double expected_units = two_layer_cost_eq4(m, n);
    EXPECT_EQ(metered_payload,
              static_cast<std::uint64_t>(expected_units) *
                  core::kCostSimModelWire)
        << "m=" << m << " n=" << n;
    EXPECT_GT(metered_wire, metered_payload) << "m=" << m << " n=" << n;
    // And the registry agrees with the per-kind TrafficStats total.
    EXPECT_DOUBLE_EQ(breakdown.total_units,
                     static_cast<double>(metered_payload) /
                         static_cast<double>(core::kCostSimModelWire));
  }
}

}  // namespace
}  // namespace p2pfl::analysis
