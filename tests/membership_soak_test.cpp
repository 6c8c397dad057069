// Slow self-healing soak: the full FL system under sustained
// crash/restart churn (including amnesia restarts) with the membership
// supervisor on. Every peer the supervisor evicts and that later
// restarts must be configured back into its subgroup, catch up to the
// latest global model, and the system must return to stabilized() — and
// the whole timeline must be a pure function of the seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "chaos/engine.hpp"
#include "chaos/plan.hpp"
#include "core/system.hpp"

namespace p2pfl::core {
namespace {

struct SoakOutcome {
  std::map<std::uint64_t, std::vector<float>> globals;  // round -> model
  std::set<PeerId> evicted, rejoined;
  std::size_t rounds_completed = 0;
  std::size_t crashes = 0, restarts = 0, amnesia_restarts = 0;
  bool healed = false;
  std::vector<std::vector<float>> final_models;  // per peer
};

struct ChurnSoak {
  explicit ChurnSoak(std::uint64_t seed)
      : sim(seed), net(sim, {.base_latency = 15 * kMillisecond}) {
    fl::SyntheticSpec spec;
    spec.height = 8;
    spec.width = 8;
    spec.train_samples = 200;
    spec.test_samples = 60;
    spec.noise_scale = 0.6;
    Rng data_rng(seed);
    data = std::make_unique<fl::TrainTest>(fl::make_synthetic(spec, data_rng));
    parts = fl::partition_iid(data->train, kPeers, data_rng);

    SystemConfig cfg;
    cfg.raft.raft.election_timeout_min = 50 * kMillisecond;
    cfg.raft.raft.election_timeout_max = 100 * kMillisecond;
    cfg.raft.fedavg_presence_poll = 100 * kMillisecond;
    cfg.raft.config_commit_interval = 200 * kMillisecond;
    cfg.raft.suspicion_grace = 500 * kMillisecond;
    cfg.raft.membership_poll = 100 * kMillisecond;
    cfg.raft.rejoin_retry = 100 * kMillisecond;
    cfg.agg.sac_dropout_tolerance = 1;
    cfg.round_interval = 1 * kSecond;
    cfg.train_duration = 100 * kMillisecond;
    cfg.seed = seed;
    sys = std::make_unique<P2pFlSystem>(
        Topology::even(kPeers, kGroups), cfg, net, data->train, data->test,
        parts, [] { return fl::Model::mlp(64, {8}); });
    sys->raft().on_peer_evicted = [this](PeerId p, bool fed_layer) {
      if (!fed_layer) outcome.evicted.insert(p);
    };
    sys->raft().on_peer_rejoined = [this](PeerId p) {
      outcome.rejoined.insert(p);
    };
    sys->on_round_complete = [this](std::uint64_t round,
                                    const secagg::Vector& global,
                                    std::size_t) {
      outcome.globals[round] = global;
    };
  }

  /// Sustained churn with amnesia, then a heal window; snapshots the
  /// outcome for cross-run comparison.
  SoakOutcome run() {
    chaos::ChurnSpec churn;
    churn.start = 2 * kSecond;
    churn.end = 10 * kSecond;
    churn.mttf = 2 * kSecond;
    churn.mttr = 800 * kMillisecond;
    for (PeerId p = 0; p < kPeers; ++p) churn.peers.push_back(p);
    churn.max_concurrent_down = 2;
    churn.amnesia_prob = 0.4;
    chaos::ChaosPlan plan;
    plan.churn(churn);
    chaos::ChaosEngineHooks hooks;
    hooks.crash = [this](PeerId p) { sys->crash_peer(p); };
    hooks.restart = [this](PeerId p) { sys->restart_peer(p); };
    hooks.restart_amnesia = [this](PeerId p) {
      sys->restart_peer_amnesia(p);
    };
    chaos::ChaosEngine engine(net, plan, hooks);

    sys->start();
    engine.start();
    sim.run_for(12 * kSecond);  // churn window plus trailing restarts
    // Heal window: no further faults; the supervisor must repair every
    // subgroup back to full strength.
    net::Transport& tr = net.transport();
    const SimTime deadline = sim.now() + 30 * kSecond;
    outcome.healed = tr.run_until(
        [&] { return engine.peers_down() == 0 && healed(); }, 30 * kSecond,
        100 * kMillisecond);
    // Two more full rounds so every rejoined peer receives a fresh
    // global broadcast (quiesce point: just after a round completes).
    const std::size_t settled = sys->rounds_completed();
    tr.run_until([&] { return sys->rounds_completed() >= settled + 2; },
                 deadline + 10 * kSecond - sim.now(), 100 * kMillisecond);
    outcome.rounds_completed = sys->rounds_completed();
    outcome.crashes = engine.crashes();
    outcome.restarts = engine.restarts();
    outcome.amnesia_restarts = engine.amnesia_restarts();
    for (PeerId p = 0; p < kPeers; ++p) {
      outcome.final_models.push_back(sys->global_model_at(p));
    }
    return outcome;
  }

  bool healed() const {
    if (!sys->raft().stabilized()) return false;
    const HealthReport hr = sys->raft().health();
    for (const SubgroupHealth& h : hr.subgroups) {
      if (h.leader == kNoPeer || h.parked) return false;
      if (!h.evicted.empty() || !h.suspected.empty()) return false;
    }
    return true;
  }

  static constexpr std::size_t kPeers = 9;
  static constexpr std::size_t kGroups = 3;
  sim::Simulator sim;
  net::Network net;
  std::unique_ptr<fl::TrainTest> data;
  fl::PeerIndices parts;
  std::unique_ptr<P2pFlSystem> sys;
  SoakOutcome outcome;
};

TEST(MembershipSoakSlow, EveryEvictedPeerRejoinsAndCatchesUp) {
  ChurnSoak soak(33);
  const SoakOutcome out = soak.run();

  // The churn actually exercised the path under test.
  ASSERT_GT(out.crashes, 0u);
  ASSERT_GT(out.amnesia_restarts, 0u);
  ASSERT_FALSE(out.evicted.empty());

  // Core promise: the system healed completely — every subgroup back at
  // full configuration with a live leader, both layers stabilized.
  EXPECT_TRUE(out.healed);
  // Every eviction was followed by a completed rejoin handshake.
  for (PeerId p : out.evicted) {
    EXPECT_TRUE(out.rejoined.count(p)) << "peer " << p << " never rejoined";
  }
  // Rounds kept completing through and after the churn.
  EXPECT_GE(out.rounds_completed, 5u);

  // Catch-up: every peer (including wiped ones) holds a global model
  // that some recent committed round actually produced, bit for bit.
  ASSERT_FALSE(out.globals.empty());
  std::vector<const std::vector<float>*> recent;
  for (auto it = out.globals.rbegin();
       it != out.globals.rend() && recent.size() < 3; ++it) {
    recent.push_back(&it->second);
  }
  for (PeerId p = 0; p < ChurnSoak::kPeers; ++p) {
    const std::vector<float>& got = out.final_models[p];
    const bool match =
        std::any_of(recent.begin(), recent.end(),
                    [&](const std::vector<float>* g) { return *g == got; });
    EXPECT_TRUE(match) << "peer " << p
                       << " holds a model no recent round produced";
  }
}

TEST(MembershipSoakSlow, ChurnTimelineIsBitIdenticalAcrossRuns) {
  // Same seed, same plan: the eviction/rejoin timeline and every
  // committed global model must be bit-equal — the supervisor introduces
  // no nondeterminism.
  const SoakOutcome a = ChurnSoak(33).run();
  const SoakOutcome b = ChurnSoak(33).run();
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.restarts, b.restarts);
  EXPECT_EQ(a.amnesia_restarts, b.amnesia_restarts);
  EXPECT_EQ(a.evicted, b.evicted);
  EXPECT_EQ(a.rejoined, b.rejoined);
  EXPECT_EQ(a.rounds_completed, b.rounds_completed);
  ASSERT_EQ(a.globals.size(), b.globals.size());
  for (const auto& [round, model] : a.globals) {
    auto it = b.globals.find(round);
    ASSERT_NE(it, b.globals.end()) << "round " << round;
    EXPECT_EQ(model, it->second) << "round " << round;
  }
  EXPECT_EQ(a.final_models, b.final_models);
}

TEST(MembershipSoakSlow, QuorumDeadSubgroupParksWithoutAbortingFedAvg) {
  // Kill a whole subgroup's quorum: the round driver parks it and keeps
  // aggregating the remaining groups; restarts un-park it.
  ChurnSoak soak(55);
  std::vector<std::size_t> groups_used;
  soak.sys->on_round_complete = [&](std::uint64_t round,
                                    const secagg::Vector& global,
                                    std::size_t groups) {
    soak.outcome.globals[round] = global;
    groups_used.push_back(groups);
  };
  soak.sys->start();
  soak.sim.run_for(5 * kSecond);
  ASSERT_GE(soak.sys->rounds_completed(), 2u);

  const PeerId fed = soak.sys->raft().fedavg_leader();
  SubgroupId g = 0;
  if (soak.sys->raft().topology().subgroup_of(fed) == g) g = 1;
  const auto group = soak.sys->raft().topology().group(g);
  // Crash the subgroup leader and one follower: 1 of 3 live, config
  // quorum 2 unreachable until someone returns.
  const PeerId sg_leader = soak.sys->raft().subgroup_leader(g);
  PeerId follower = kNoPeer;
  for (PeerId p : group) {
    if (p != sg_leader) {
      follower = p;
      break;
    }
  }
  soak.sys->crash_peer(sg_leader);
  soak.sys->crash_peer(follower);
  const std::size_t before = soak.sys->rounds_completed();
  soak.sim.run_for(10 * kSecond);
  // FedAvg did not abort: rounds completed with the group parked.
  EXPECT_GE(soak.sys->rounds_completed(), before + 3);
  ASSERT_FALSE(groups_used.empty());
  EXPECT_EQ(groups_used.back(), ChurnSoak::kGroups - 1);

  soak.sys->restart_peer(follower);
  soak.sys->restart_peer_amnesia(sg_leader);
  const SimTime deadline = soak.sim.now() + 30 * kSecond;
  EXPECT_TRUE(soak.net.transport().run_until([&] { return soak.healed(); },
                                             30 * kSecond,
                                             100 * kMillisecond));
  const std::size_t mid = soak.sys->rounds_completed();
  soak.net.transport().run_until(
      [&] { return soak.sys->rounds_completed() >= mid + 2; },
      deadline + 10 * kSecond - soak.sim.now(), 100 * kMillisecond);
  // The repaired subgroup contributes again.
  EXPECT_EQ(groups_used.back(), ChurnSoak::kGroups);
}

}  // namespace
}  // namespace p2pfl::core
