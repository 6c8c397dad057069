#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cost_model.hpp"
#include "common/parallel.hpp"
#include "core/agg_cost_sim.hpp"
#include "core/fl_experiment.hpp"
#include "core/topology.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace p2pfl::core {
namespace {

// --- topology -------------------------------------------------------------------

TEST(Topology, EvenSplitAssignsEveryPeerOnce) {
  const Topology t = Topology::even(10, 3);
  EXPECT_EQ(t.subgroup_count(), 3u);
  EXPECT_EQ(t.peer_count(), 10u);
  EXPECT_EQ(t.sizes(), (std::vector<std::size_t>{4, 3, 3}));
  std::set<PeerId> seen;
  for (PeerId p : t.all_peers()) EXPECT_TRUE(seen.insert(p).second);
  EXPECT_EQ(seen.size(), 10u);
  for (PeerId p : t.all_peers()) {
    const SubgroupId g = t.subgroup_of(p);
    const auto& group = t.group(g);
    EXPECT_NE(std::find(group.begin(), group.end(), p), group.end());
  }
}

TEST(Topology, ByGroupSizeMatchesPaperGrouping) {
  const Topology t = Topology::by_group_size(20, 3);
  EXPECT_EQ(t.subgroup_count(), 6u);
  EXPECT_EQ(t.sizes(), analysis::subgroups_by_target_size(20, 3));
}

TEST(Topology, DesignatedLeadersAreFirstMembers) {
  const Topology t = Topology::even(9, 3);
  const auto leaders = t.designated_leaders();
  ASSERT_EQ(leaders.size(), 3u);
  for (SubgroupId g = 0; g < 3; ++g) {
    EXPECT_EQ(leaders[g], t.group(g).front());
  }
}

TEST(Topology, DuplicatePeerRejected) {
  EXPECT_THROW(Topology({{0, 1}, {1, 2}}), std::logic_error);
}

TEST(Topology, EmptyGroupRejected) {
  EXPECT_THROW(Topology({{0, 1}, {}}), std::logic_error);
}

TEST(Topology, SingleGroupIsOneLayer) {
  const Topology t = Topology::even(5, 1);
  EXPECT_EQ(t.subgroup_count(), 1u);
  EXPECT_EQ(t.group(0).size(), 5u);
}

// --- protocol cost vs closed-form model (the Fig. 13/14 cross-check) ------------

TEST(AggCostSim, MatchesEq4ExactlyOnEvenGroups) {
  for (std::size_t m : {2u, 3u, 5u}) {
    for (std::size_t n : {2u, 3u, 5u}) {
      const std::vector<std::size_t> groups(m, n);
      const auto r = simulate_aggregation_cost(groups, 0);
      EXPECT_TRUE(r.completed);
      EXPECT_DOUBLE_EQ(r.total_units, analysis::two_layer_cost_eq4(m, n))
          << "m=" << m << " n=" << n;
    }
  }
}

TEST(AggCostSim, MatchesGeneralModelOnUnevenGroups) {
  const std::vector<std::size_t> groups{4, 4, 3, 3, 3, 3};  // N=20, n=3
  const auto r = simulate_aggregation_cost(groups, 0);
  EXPECT_TRUE(r.completed);
  EXPECT_DOUBLE_EQ(r.total_units, analysis::two_layer_cost(groups));
}

TEST(AggCostSim, MatchesFtModelOnUnevenGroups) {
  // The 3-2 setting (tolerance 1) over N=20's uneven grouping.
  const std::vector<std::size_t> groups{4, 4, 3, 3, 3, 3};
  const auto r = simulate_aggregation_cost(groups, 1);
  EXPECT_TRUE(r.completed);
  EXPECT_DOUBLE_EQ(r.total_units, analysis::two_layer_ft_cost(groups, 3, 2));
}

TEST(AggCostSim, MatchesEq5ForFaultTolerantSac) {
  for (std::size_t n : {3u, 5u}) {
    for (std::size_t k = 2; k <= n; ++k) {
      const std::vector<std::size_t> groups(4, n);
      const auto r = simulate_aggregation_cost(groups, n - k);
      EXPECT_TRUE(r.completed);
      EXPECT_DOUBLE_EQ(r.total_units,
                       analysis::two_layer_ft_cost_eq5(4 * n, 4, n, k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(AggCostSim, BreakdownComponentsMatchModelTerms) {
  const std::size_t m = 3, n = 4;
  const std::vector<std::size_t> groups(m, n);
  const auto r = simulate_aggregation_cost(groups, 0);
  EXPECT_DOUBLE_EQ(r.sac_units, static_cast<double>(m * (n * n - 1)));
  EXPECT_DOUBLE_EQ(r.fedavg_units, 2.0 * (m - 1));
  EXPECT_DOUBLE_EQ(r.broadcast_units, static_cast<double>(m * (n - 1)));
}

TEST(AggCostSim, LatencyFollowsUplinkClosedForms) {
  // |w| = 5 MB over 100 Mbit/s uplinks: one transfer holds an uplink for
  // t = 400 ms and each hop adds L = 15 ms; framing adds under 0.1 ms.
  constexpr std::uint64_t kWire = 5'000'000;
  constexpr double t = 400.0, L = 15.0;
  const net::NetworkConfig uplink{.egress_bytes_per_sec = 100'000'000 / 8};
  const auto round = [&](const net::NetworkConfig& link, std::size_t m,
                         std::size_t tolerance) {
    sim::Simulator sim(77);
    net::Network net(sim, link);
    return simulate_aggregation_cost(
        net, std::vector<std::size_t>(m, 30 / m), tolerance, kWire);
  };
  for (const auto& [m, tau] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {2, 0}, {3, 0}, {5, 0}, {6, 0}, {10, 0}, {6, 1}}) {
    SCOPED_TRACE("m=" + std::to_string(m) + " tolerance=" +
                 std::to_string(tau));
    const double n = 30.0 / static_cast<double>(m);
    const auto r = round(uplink, m, tau);
    ASSERT_TRUE(r.completed);
    // The FedAvg leader waits for its subgroup's n-1 share bundles of
    // tau+1 parts each, one subtotal and one upload; then it returns the
    // model to m-1 leaders, and the last of them fans it out to n-1 peers.
    const double commit = ((n - 1) * (tau + 1) + 2) * t + 3 * L;
    EXPECT_NEAR(r.aggregate_ms, commit, 0.1);
    EXPECT_NEAR(r.all_received_ms,
                commit + (static_cast<double>(m) + n - 2) * t + 2 * L, 0.1);
  }
  // Without an egress limit only the three and then two hops remain.
  const auto unlimited = round({}, 6, 0);
  EXPECT_DOUBLE_EQ(unlimited.aggregate_ms, 3 * L);
  EXPECT_DOUBLE_EQ(unlimited.all_received_ms, 5 * L);
  // One-layer SAC: every peer pushes N-1 shares, then broadcasts its
  // subtotal to N-1 peers.
  sim::Simulator sim(78);
  net::Network net(sim, uplink);
  const auto one = simulate_one_layer_latency(net, 30, kWire);
  ASSERT_TRUE(one.completed);
  EXPECT_NEAR(one.all_received_ms, 2 * 29 * t + 2 * L, 0.1);
}

TEST(AggCostSim, PlainFedAvgCornerCase) {
  // m = N: subgroups of one peer; the system degenerates to FedAvg with
  // 2(N-1) transfers.
  const std::vector<std::size_t> groups(6, 1);
  const auto r = simulate_aggregation_cost(groups, 0);
  EXPECT_TRUE(r.completed);
  EXPECT_DOUBLE_EQ(r.total_units, 10.0);
  EXPECT_DOUBLE_EQ(r.sac_units, 0.0);
}

// --- fl experiment harness -------------------------------------------------------

FlExperimentConfig tiny_config() {
  FlExperimentConfig cfg;
  cfg.peers = 6;
  cfg.group_size = 3;
  cfg.rounds = 6;
  cfg.eval_every = 3;
  cfg.data.train_samples = 600;
  cfg.data.test_samples = 100;
  cfg.data.height = 8;
  cfg.data.width = 8;
  cfg.data.noise_scale = 0.6;
  cfg.mlp_hidden = {16};
  cfg.learning_rate = 3e-3f;
  cfg.seed = 21;
  return cfg;
}

TEST(FlExperiment, RunsAndLearns) {
  FlExperimentConfig cfg = tiny_config();
  cfg.rounds = 20;
  const auto r = run_fl_experiment(cfg);
  EXPECT_EQ(r.records.size(), 20u);
  EXPECT_GT(r.final_accuracy, 0.3);
  EXPECT_GT(r.model_params, 0u);
}

TEST(FlExperiment, DeterministicForSeed) {
  const FlExperimentConfig cfg = tiny_config();
  const auto a = run_fl_experiment(cfg);
  const auto b = run_fl_experiment(cfg);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].train_loss, b.records[i].train_loss);
  }
}

TEST(FlExperiment, AggregationKindsAllProgress) {
  for (auto kind : {AggregationKind::kOneLayerSac,
                    AggregationKind::kTwoLayerSac,
                    AggregationKind::kPlainFedAvg}) {
    FlExperimentConfig cfg = tiny_config();
    cfg.aggregation = kind;
    cfg.rounds = 10;
    const auto r = run_fl_experiment(cfg);
    EXPECT_GT(r.final_accuracy, 0.15)
        << "kind " << static_cast<int>(kind);
  }
}

TEST(FlExperiment, TwoLayerTracksOneLayerAccuracy) {
  // Fig. 6's claim: the subgroup decomposition does not change accuracy
  // materially. At this tiny scale allow a loose band.
  FlExperimentConfig base = tiny_config();
  base.rounds = 15;
  base.aggregation = AggregationKind::kOneLayerSac;
  const auto one = run_fl_experiment(base);
  base.aggregation = AggregationKind::kTwoLayerSac;
  const auto two = run_fl_experiment(base);
  EXPECT_NEAR(two.final_accuracy, one.final_accuracy, 0.15);
}

TEST(FlExperiment, FractionHalfStillLearns) {
  FlExperimentConfig cfg = tiny_config();
  cfg.peers = 8;
  cfg.subgroups = 4;
  cfg.group_size = 0;
  cfg.fraction_p = 0.5;
  cfg.rounds = 15;
  const auto r = run_fl_experiment(cfg);
  EXPECT_GT(r.final_accuracy, 0.25);
}

TEST(FlExperiment, DropoutsWithFaultToleranceStillLearn) {
  FlExperimentConfig cfg = tiny_config();
  cfg.sac_k = 2;
  cfg.dropout_after_share_prob = 0.15;
  cfg.rounds = 15;
  const auto r = run_fl_experiment(cfg);
  EXPECT_GT(r.final_accuracy, 0.25);
}

TEST(FlExperiment, NonIidHurtsAccuracy) {
  // The paper's consistent ordering: IID >= Non-IID(5%) >= Non-IID(0%).
  FlExperimentConfig cfg = tiny_config();
  cfg.rounds = 15;
  cfg.distribution = DataDistribution::kIid;
  const auto iid = run_fl_experiment(cfg);
  cfg.distribution = DataDistribution::kNonIid0;
  const auto non0 = run_fl_experiment(cfg);
  EXPECT_GE(iid.final_accuracy + 0.05, non0.final_accuracy);
}

TEST(FlExperiment, SampleWeightedSacMatchesPlainFedAvg) {
  // With weight_by_samples, a single-subgroup secure aggregation equals
  // the exact McMahan sample-weighted average.
  FlExperimentConfig cfg = tiny_config();
  cfg.peers = 5;
  cfg.group_size = 5;  // one group: weighted SAC = weighted FedAvg
  cfg.rounds = 5;
  cfg.weight_by_samples = true;
  cfg.aggregation = AggregationKind::kTwoLayerSac;
  const auto weighted = run_fl_experiment(cfg);
  cfg.weight_by_samples = false;
  cfg.aggregation = AggregationKind::kPlainFedAvg;
  const auto plain = run_fl_experiment(cfg);
  EXPECT_NEAR(weighted.final_accuracy, plain.final_accuracy, 0.03);
}

TEST(FlExperiment, ObserverSeesEveryRound) {
  FlExperimentConfig cfg = tiny_config();
  std::size_t calls = 0;
  run_fl_experiment(cfg, [&](const RoundRecord& rec) {
    ++calls;
    EXPECT_EQ(rec.round, calls);
  });
  EXPECT_EQ(calls, cfg.rounds);
}

TEST(FlExperiment, ZeroBatchSizeThrowsAtAnyWorkerCount) {
  // train_round rejects a zero batch size; with the peers training
  // concurrently the error must still reach the caller.
  FlExperimentConfig cfg = tiny_config();
  cfg.rounds = 1;
  cfg.train.batch_size = 0;
  for (std::size_t workers : {1u, 4u}) {
    set_parallel_workers(workers);
    EXPECT_THROW(run_fl_experiment(cfg), std::logic_error)
        << "workers=" << workers;
  }
  set_parallel_workers(0);  // restore the hardware default
}

}  // namespace
}  // namespace p2pfl::core
