// Long chaos soaks (slow suite; the fast configurations live in
// chaos_test.cpp).
//
// Two layers are soaked here:
//   * the aggregation stack via run_chaos_soak — many rounds under
//     simultaneous loss, duplication, reordering, crash/restart churn
//     and a partition window, across several seeds;
//   * the full P2pFlSystem (Raft leadership + aggregation + training)
//     under a ChaosEngine partition window, checking that rounds abort
//     while the FedAvg leader is cut off and resume after healing.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "chaos/engine.hpp"
#include "chaos/plan.hpp"
#include "chaos/soak.hpp"
#include "core/system.hpp"

namespace p2pfl::chaos {
namespace {

TEST(ChaosSoakSlow, LongSoakSurvivesLossDupChurnAndPartition) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    ChaosSoakConfig cfg;
    cfg.peers = 12;
    cfg.groups = 3;
    cfg.rounds = 20;
    cfg.dim = 8;
    cfg.seed = seed;
    cfg.round_interval = 1 * kSecond;
    cfg.net.faults.drop_prob = 0.10;
    cfg.net.faults.duplicate_prob = 0.10;
    cfg.net.faults.reorder_prob = 0.10;
    cfg.net.faults.reorder_jitter = 100 * kMillisecond;
    cfg.churn_mttf = 4 * kSecond;
    cfg.churn_mttr = 600 * kMillisecond;
    cfg.partition_at = 5 * kSecond + 100 * kMillisecond;
    cfg.heal_at = 7 * kSecond + 100 * kMillisecond;
    const ChaosSoakResult res = run_chaos_soak(cfg);
    EXPECT_TRUE(res.liveness_ok)
        << "seed " << seed << ": committed " << res.rounds_committed
        << "/" << res.rounds_started;
    EXPECT_TRUE(res.all_commits_exact)
        << "seed " << seed << " max error " << res.max_abs_error;
    EXPECT_GE(res.rounds_committed, 5u) << "seed " << seed;
    EXPECT_GT(res.crashes, 0u) << "seed " << seed << ": churn never fired";
    // The ambient faults really were active the whole run.
    EXPECT_GT(res.traffic.dropped_by_reason.at("chaos_loss"), 0u);
  }
}

TEST(ChaosSoakSlow, HighLossStillCommitsExactRounds) {
  // 25% loss is brutal (a 4-peer share phase needs ~36 deliveries);
  // retransmission must still land enough rounds, and every landed
  // round must be exact.
  ChaosSoakConfig cfg;
  cfg.peers = 8;
  cfg.groups = 2;
  cfg.rounds = 12;
  cfg.seed = 17;
  cfg.round_interval = 2 * kSecond;
  cfg.net.faults.drop_prob = 0.25;
  const ChaosSoakResult res = run_chaos_soak(cfg);
  EXPECT_TRUE(res.liveness_ok);
  EXPECT_TRUE(res.all_commits_exact) << "max error " << res.max_abs_error;
  EXPECT_GE(res.rounds_committed, 4u);
}

// Full-system harness (mirrors tests/system_test.cpp) with an
// injectable network configuration.
struct FullSystemChaos {
  FullSystemChaos(std::size_t peers, std::size_t groups, std::uint64_t seed,
                  net::NetworkConfig net_cfg = {.base_latency =
                                                    15 * kMillisecond})
      : sim(seed), net(sim, net_cfg), task(peers, seed) {
    core::SystemConfig cfg;
    cfg.raft.raft.election_timeout_min = 50 * kMillisecond;
    cfg.raft.raft.election_timeout_max = 100 * kMillisecond;
    cfg.raft.fedavg_presence_poll = 100 * kMillisecond;
    cfg.round_interval = 1 * kSecond;
    cfg.train_duration = 100 * kMillisecond;
    cfg.learning_rate = 3e-3f;
    cfg.seed = seed;
    sys = std::make_unique<core::P2pFlSystem>(
        core::Topology::even(peers, groups), cfg, net, task.data.train,
        task.data.test, task.parts, [] { return fl::Model::mlp(64, {16}); });
  }

  sim::Simulator sim;
  net::Network net;
  SyntheticTask task;
  std::unique_ptr<core::P2pFlSystem> sys;
};

TEST(ChaosSoakSlow, SystemAbortsRoundsUnderPartitionAndRecovers) {
  FullSystemChaos f(9, 3, 7);
  f.sys->start();
  f.sim.run_for(6 * kSecond);
  ASSERT_GE(f.sys->rounds_completed(), 1u);

  // Cut subgroup 0 (wherever the FedAvg leader sits, two of the three
  // subgroups end up on the other side) for four seconds, driven
  // through a ChaosPlan so the faults land on the trace/metrics too.
  ChaosPlan plan;
  plan.partition_window(f.sim.now() + 100 * kMillisecond,
                        f.sim.now() + 4 * kSecond + 100 * kMillisecond,
                        {{0, 1, 2}, {3, 4, 5, 6, 7, 8}});
  ChaosEngine engine(f.net, std::move(plan));
  engine.start();
  f.sim.run_for(5 * kSecond);  // window plus a little settling

  // During the window some started rounds could not complete: either
  // the FedAvg leader was on the 3-peer island (no quorum of uploads)
  // or cross-partition subgroups never delivered theirs.
  EXPECT_GT(f.sys->rounds_aborted(), 0u);

  // After healing, progress resumes.
  const std::size_t after_heal = f.sys->rounds_completed();
  f.sim.run_for(10 * kSecond);
  EXPECT_GE(f.sys->rounds_completed(), after_heal + 3)
      << "rounds must keep completing after the partition heals";
}

TEST(ChaosSoakSlow, CrashWindowTripsLatencySloWithAlertPostmortem) {
  // A leader-severing window forces rounds to run to their collect
  // timeout (or die outright): their censored latency must trip the
  // round-latency SLO, and each breach must carry a flight-recorder
  // post-mortem. The identical fault-free run must stay green.
  const auto run = [](bool partition) {
    ChaosSoakConfig cfg;
    cfg.peers = 12;
    cfg.groups = 3;
    cfg.rounds = 8;
    cfg.seed = 3;
    cfg.round_interval = 1 * kSecond;
    if (partition) {
      cfg.partition_at = 2200 * kMillisecond;
      cfg.heal_at = 5200 * kMillisecond;
    }
    cfg.capture_spans = true;
    cfg.slo_rules = obs::default_rules(/*max_latency_ms=*/750.0);
    return run_chaos_soak(cfg);
  };

  const ChaosSoakResult healthy = run(false);
  EXPECT_TRUE(healthy.slo_report.healthy())
      << healthy.slo_report.table();
  EXPECT_TRUE(healthy.slo_alerts.empty());

  const ChaosSoakResult breached = run(true);
  EXPECT_FALSE(breached.slo_report.healthy());
  std::size_t latency_breaches = 0;
  for (const obs::SloBreach& b : breached.slo_report.breaches) {
    latency_breaches += b.rule == "round_latency";
  }
  EXPECT_GT(latency_breaches, 0u) << breached.slo_report.table();

  ASSERT_FALSE(breached.slo_alerts.empty());
  bool found_latency_alert = false;
  for (const obs::SloAlert& a : breached.slo_alerts) {
    if (a.breach.rule != "round_latency") continue;
    found_latency_alert = true;
    // The alert must attribute the breach: a rendered table plus the
    // breaching round's critical path from the span flight recorder.
    EXPECT_FALSE(a.table.empty());
    EXPECT_TRUE(a.critical_path.found) << "round " << a.breach.round;
    EXPECT_FALSE(a.spans_jsonl.empty());
  }
  EXPECT_TRUE(found_latency_alert);
  // The breaching rounds are visible in the JSONL stream as censored
  // latency, not as gaps.
  EXPECT_NE(breached.timeseries_jsonl.find("\"latency_ms\":1000"),
            std::string::npos);
}

TEST(ChaosSoakSlow, SystemLearnsOnLossyNetwork) {
  net::NetworkConfig cfg{.base_latency = 15 * kMillisecond};
  cfg.faults.drop_prob = 0.05;
  cfg.faults.duplicate_prob = 0.05;
  FullSystemChaos f(6, 2, 13, cfg);
  f.sys->start();
  f.sim.run_for(30 * kSecond);
  EXPECT_GE(f.sys->rounds_completed(), 5u);
  EXPECT_GT(f.sys->evaluate_global().accuracy, 0.4);
}

}  // namespace
}  // namespace p2pfl::chaos
