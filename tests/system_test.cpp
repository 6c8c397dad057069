#include <gtest/gtest.h>

#include <memory>

#include "core/system.hpp"
#include "fl/checkpoint.hpp"

namespace p2pfl::core {
namespace {

struct FullSystem {
  FullSystem(std::size_t peers, std::size_t groups, std::uint64_t seed = 3)
      : sim(seed), net(sim, {.base_latency = 15 * kMillisecond}) {
    fl::SyntheticSpec spec;
    spec.height = 8;
    spec.width = 8;
    spec.train_samples = 400;
    spec.test_samples = 120;
    spec.noise_scale = 0.6;
    Rng data_rng(seed);
    data = std::make_unique<fl::TrainTest>(fl::make_synthetic(spec, data_rng));
    parts = fl::partition_iid(data->train, peers, data_rng);

    SystemConfig cfg;
    cfg.raft.raft.election_timeout_min = 50 * kMillisecond;
    cfg.raft.raft.election_timeout_max = 100 * kMillisecond;
    cfg.raft.fedavg_presence_poll = 100 * kMillisecond;
    cfg.round_interval = 1 * kSecond;
    cfg.train_duration = 100 * kMillisecond;
    cfg.learning_rate = 3e-3f;
    cfg.seed = seed;
    sys = std::make_unique<P2pFlSystem>(
        Topology::even(peers, groups), cfg, net, data->train, data->test,
        parts, [] { return fl::Model::mlp(64, {16}); });
  }

  sim::Simulator sim;
  net::Network net;
  std::unique_ptr<fl::TrainTest> data;
  fl::PeerIndices parts;
  std::unique_ptr<P2pFlSystem> sys;
};

TEST(FullSystem, GlobalModelSnapshotKeepsItsBytes) {
  // A subgroup snapshot's application blob: [u64 round][u32 length]
  // [checkpoint of the newest global model].
  FullSystem f(6, 2);
  std::vector<float> w(fl::Model::mlp(64, {16}).param_count());
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = static_cast<float>(i) * 0.5f;
  }
  const Bytes ckpt = fl::encode_checkpoint(w);
  const auto n = static_cast<std::uint32_t>(ckpt.size());
  Bytes blob = {5, 0, 0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) {
    blob.push_back(static_cast<std::uint8_t>(n >> (8 * i)));
  }
  blob.insert(blob.end(), ckpt.begin(), ckpt.end());
  EXPECT_TRUE(f.sys->raft().app_snapshot_save(2).empty());  // no model yet
  f.sys->raft().app_snapshot_install(2, blob);
  EXPECT_EQ(f.sys->global_model_at(2), w);
  EXPECT_EQ(f.sys->raft().app_snapshot_save(2), blob);
  // A truncated blob, or one with trailing bytes, is ignored.
  std::vector<float> w2 = w;
  w2[0] = 7.0f;
  Bytes newer = {6, 0, 0, 0, 0, 0, 0, 0};
  const Bytes ckpt2 = fl::encode_checkpoint(w2);
  for (int i = 0; i < 4; ++i) {
    newer.push_back(static_cast<std::uint8_t>(n >> (8 * i)));
  }
  newer.insert(newer.end(), ckpt2.begin(), ckpt2.end());
  Bytes longer = newer;
  longer.push_back(0);
  f.sys->raft().app_snapshot_install(2, longer);
  f.sys->raft().app_snapshot_install(
      2, Bytes(newer.begin(), newer.end() - 1));
  EXPECT_EQ(f.sys->global_model_at(2), w);
  f.sys->raft().app_snapshot_install(2, newer);
  EXPECT_EQ(f.sys->global_model_at(2), w2);
}

TEST(FullSystem, CompletesRoundsAndLearns) {
  FullSystem f(6, 2);
  f.sys->start();
  f.sim.run_for(20 * kSecond);
  EXPECT_GE(f.sys->rounds_completed(), 10u);
  const auto ev = f.sys->evaluate_global();
  EXPECT_GT(ev.accuracy, 0.5);
}

TEST(FullSystem, EveryPeerReceivesTheGlobalModel) {
  FullSystem f(6, 2);
  f.sys->start();
  f.sim.run_for(10 * kSecond);
  ASSERT_GE(f.sys->rounds_completed(), 1u);
  // All peers' latest globals agree (they all got the same broadcast).
  const auto& reference = f.sys->global_model_at(0);
  ASSERT_FALSE(reference.empty());
  for (PeerId p = 1; p < 6; ++p) {
    EXPECT_EQ(f.sys->global_model_at(p), reference) << "peer " << p;
  }
}

TEST(FullSystem, SurvivesSubgroupLeaderCrash) {
  FullSystem f(9, 3);
  f.sys->start();
  f.sim.run_for(8 * kSecond);
  const std::size_t before = f.sys->rounds_completed();
  ASSERT_GE(before, 1u);
  // Crash a subgroup leader that is not the FedAvg leader.
  const PeerId fed = f.sys->raft().fedavg_leader();
  PeerId victim = kNoPeer;
  for (SubgroupId g = 0; g < 3; ++g) {
    const PeerId l = f.sys->raft().subgroup_leader(g);
    if (l != fed) victim = l;
  }
  ASSERT_NE(victim, kNoPeer);
  f.sys->crash_peer(victim);
  f.sim.run_for(15 * kSecond);
  EXPECT_GT(f.sys->rounds_completed(), before + 3)
      << "rounds must keep completing after the crash";
}

TEST(FullSystem, SurvivesFedAvgLeaderCrash) {
  FullSystem f(9, 3, 11);
  f.sys->start();
  f.sim.run_for(8 * kSecond);
  const std::size_t before = f.sys->rounds_completed();
  ASSERT_GE(before, 1u);
  const PeerId fed = f.sys->raft().fedavg_leader();
  ASSERT_NE(fed, kNoPeer);
  f.sys->crash_peer(fed);
  f.sim.run_for(20 * kSecond);
  EXPECT_GT(f.sys->rounds_completed(), before + 3);
  EXPECT_NE(f.sys->raft().fedavg_leader(), fed);
}

TEST(FullSystem, CrashedPeerExcludedThenRejoinsAfterRestart) {
  FullSystem f(6, 2, 5);
  f.sys->start();
  f.sim.run_for(6 * kSecond);
  // Crash a pure follower.
  PeerId victim = kNoPeer;
  for (PeerId p = 0; p < 6; ++p) {
    bool leader = false;
    for (SubgroupId g = 0; g < 2; ++g) {
      if (f.sys->raft().subgroup_leader(g) == p) leader = true;
    }
    if (!leader) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  f.sys->crash_peer(victim);
  f.sim.run_for(6 * kSecond);
  const std::size_t rounds_mid = f.sys->rounds_completed();
  EXPECT_GE(rounds_mid, 5u);  // aggregation continued without it
  f.sys->restart_peer(victim);
  f.sim.run_for(6 * kSecond);
  // After restart the peer receives globals again.
  EXPECT_EQ(f.sys->global_model_at(victim),
            f.sys->global_model_at(f.sys->raft().fedavg_leader()));
}

TEST(FullSystem, RoundCompletionCallbackReportsGroupCounts) {
  FullSystem f(6, 2, 9);
  std::vector<std::size_t> group_counts;
  f.sys->on_round_complete = [&](std::uint64_t, const secagg::Vector&,
                                 std::size_t groups) {
    group_counts.push_back(groups);
  };
  f.sys->start();
  f.sim.run_for(10 * kSecond);
  ASSERT_FALSE(group_counts.empty());
  for (std::size_t g : group_counts) EXPECT_EQ(g, 2u);
}

TEST(FullSystem, SlowerLinksStillCompleteRounds) {
  // Uniformly slower links (extra 10 ms per hop — still respecting
  // Raft's "broadcast time << election timeout" requirement): transfers
  // take longer, rounds still complete steadily.
  FullSystem f(6, 2, 21);
  for (PeerId p = 0; p < 6; ++p) {
    for (PeerId q = 0; q < 6; ++q) {
      if (p != q) f.net.set_link_delay(p, q, 10 * kMillisecond);
    }
  }
  f.sys->start();
  f.sim.run_for(20 * kSecond);
  EXPECT_GE(f.sys->rounds_completed(), 5u);
  EXPECT_GT(f.sys->evaluate_global().accuracy, 0.4);
}

TEST(FullSystem, CombinedFollowerCrashAndSlowLinksKeepLearning) {
  FullSystem f(9, 3, 23);
  f.sys->start();
  f.sim.run_for(6 * kSecond);
  // Slow down one subgroup's leader (late uploads) and crash a follower
  // elsewhere.
  const PeerId fed = f.sys->raft().fedavg_leader();
  ASSERT_NE(fed, kNoPeer);
  PeerId slow_leader = kNoPeer;
  for (SubgroupId g = 0; g < 3; ++g) {
    const PeerId l = f.sys->raft().subgroup_leader(g);
    if (l != fed) slow_leader = l;
  }
  ASSERT_NE(slow_leader, kNoPeer);
  f.net.set_link_delay(slow_leader, fed, 400 * kMillisecond);
  PeerId follower = kNoPeer;
  for (PeerId p = 0; p < 9; ++p) {
    bool is_leader = false;
    for (SubgroupId g = 0; g < 3; ++g) {
      if (f.sys->raft().subgroup_leader(g) == p) is_leader = true;
    }
    if (!is_leader && p != fed) {
      follower = p;
      break;
    }
  }
  f.sys->crash_peer(follower);
  const std::size_t before = f.sys->rounds_completed();
  f.sim.run_for(15 * kSecond);
  EXPECT_GT(f.sys->rounds_completed(), before + 3);
}

}  // namespace
}  // namespace p2pfl::core
