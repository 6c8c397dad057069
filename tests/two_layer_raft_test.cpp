#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/two_layer_raft.hpp"

namespace p2pfl::core {
namespace {

TwoLayerRaftOptions fast_options() {
  TwoLayerRaftOptions opts;
  opts.raft.election_timeout_min = 50 * kMillisecond;   // T
  opts.raft.election_timeout_max = 100 * kMillisecond;  // 2T
  opts.fedavg_presence_poll = 100 * kMillisecond;
  opts.config_commit_interval = 200 * kMillisecond;
  return opts;
}

struct System {
  explicit System(std::size_t peers, std::size_t groups,
                  std::uint64_t seed = 42)
      : sim(seed),
        net(sim, {.base_latency = 15 * kMillisecond}),
        sys(Topology::even(peers, groups), fast_options(), net) {}

  /// Run until stabilized() or the deadline; returns success.
  bool run_until_stable(SimDuration budget = 10 * kSecond) {
    return net.transport().run_until([this] { return sys.stabilized(); },
                                     budget, 20 * kMillisecond);
  }

  sim::Simulator sim;
  net::Network net;
  TwoLayerRaftSystem sys;
};

TEST(TwoLayerRaft, SnapshotAndConfigLayoutsKeepTheirBytes) {
  System s(6, 2);
  raft::RaftNode& node = s.sys.subgroup_node(1);
  Bytes installed_app;
  s.sys.app_snapshot_install = [&](PeerId, const Bytes& app) {
    installed_app = app;
  };
  s.sys.app_snapshot_save = [](PeerId) { return Bytes{0xAA, 0xBB}; };
  std::vector<Bytes> payload_of;
  s.sys.app_snapshot_payload = [&](const Bytes& app) -> std::uint64_t {
    payload_of.push_back(app);
    return 40;
  };
  // A composite snapshot: [u8 2][u32 count][u32 peer]..., then the
  // application blob [u32 length][bytes].
  const Bytes composite = {2,                   // tag
                           2,    0,    0, 0,    // two peers
                           3,    0,    0, 0,    //
                           5,    0,    0, 0,    //
                           2,    0,    0, 0,    // a 2-byte blob
                           0xAA, 0xBB};
  node.on_snapshot_install(7, composite);
  EXPECT_EQ(s.sys.known_fedavg_config(1), (std::vector<PeerId>{3, 5}));
  EXPECT_EQ(installed_app, (Bytes{0xAA, 0xBB}));
  EXPECT_EQ(node.snapshot_payload(composite), 40u);
  EXPECT_EQ(payload_of, (std::vector<Bytes>{{0xAA, 0xBB}}));
  // Saving writes the same layout around the application's blob.
  EXPECT_EQ(node.on_snapshot_save(), composite);
  // A fed-config-only blob from an older snapshot, [u8 1][u32 count]
  // [u32 peer]..., still installs; it is also the subgroup log's command.
  node.on_snapshot_install(8, Bytes{1, 1, 0, 0, 0, 4, 0, 0, 0});
  EXPECT_EQ(s.sys.known_fedavg_config(1), (std::vector<PeerId>{4}));
  node.on_apply(9, raft::LogEntry{1, raft::EntryKind::kCommand,
                                  Bytes{1, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0,
                                        0}});
  EXPECT_EQ(s.sys.known_fedavg_config(1), (std::vector<PeerId>{0, 3}));
  // Anything else leaves the configuration as it was.
  for (const Bytes& bad :
       {Bytes{3, 0, 0, 0, 0}, Bytes{1, 1, 0, 0, 0, 4, 0, 0},
        Bytes{1, 0, 0, 0, 0, 9}, Bytes{2, 0, 0, 0, 0, 1, 0, 0, 0}}) {
    node.on_snapshot_install(10, bad);
    node.on_apply(10, raft::LogEntry{1, raft::EntryKind::kCommand, bad});
    EXPECT_EQ(node.snapshot_payload(bad), 0u);
  }
  EXPECT_EQ(s.sys.known_fedavg_config(1), (std::vector<PeerId>{0, 3}));
  EXPECT_EQ(payload_of.size(), 1u);

  // The configuration the subgroup leaders commit has the same layout.
  s.sys.start_all();
  ASSERT_TRUE(s.run_until_stable());
  std::vector<Bytes> commands;
  const auto apply = node.on_apply;
  node.on_apply = [&](raft::Index i, const raft::LogEntry& e) {
    if (e.kind == raft::EntryKind::kCommand) commands.push_back(e.data);
    apply(i, e);
  };
  s.sim.run_for(1 * kSecond);
  ASSERT_FALSE(commands.empty());
  std::vector<PeerId> members = s.sys.known_fedavg_config(1);
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(commands.back(),
            (Bytes{1, 2, 0, 0, 0, static_cast<std::uint8_t>(members[0]), 0,
                   0, 0, static_cast<std::uint8_t>(members[1]), 0, 0, 0}));
}

TEST(TwoLayerRaft, StabilizesFromColdStart) {
  System s(9, 3);
  s.sys.start_all();
  ASSERT_TRUE(s.run_until_stable());
  // One leader per subgroup; the FedAvg membership is exactly them.
  std::vector<PeerId> leaders;
  for (SubgroupId g = 0; g < 3; ++g) {
    const PeerId l = s.sys.subgroup_leader(g);
    ASSERT_NE(l, kNoPeer);
    leaders.push_back(l);
  }
  auto members = s.sys.fedavg_members();
  std::sort(members.begin(), members.end());
  std::sort(leaders.begin(), leaders.end());
  EXPECT_EQ(members, leaders);
  // The FedAvg leader is one of the subgroup leaders.
  EXPECT_NE(std::find(leaders.begin(), leaders.end(), s.sys.fedavg_leader()),
            leaders.end());
}

TEST(TwoLayerRaft, PaperScaleTwentyFivePeersStabilizes) {
  // §VI-B: five subgroups of five peers.
  System s(25, 5, 7);
  s.sys.start_all();
  ASSERT_TRUE(s.run_until_stable(20 * kSecond));
  EXPECT_EQ(s.sys.fedavg_members().size(), 5u);
}

TEST(TwoLayerRaft, SubgroupLeaderCrashIsRepairedAndReplacedInFedAvg) {
  System s(9, 3);
  s.sys.start_all();
  ASSERT_TRUE(s.run_until_stable());
  // Pick a subgroup leader that is NOT the FedAvg leader (§V-A1 case).
  const PeerId fed = s.sys.fedavg_leader();
  PeerId victim = kNoPeer;
  SubgroupId victim_group = 0;
  for (SubgroupId g = 0; g < 3; ++g) {
    if (s.sys.subgroup_leader(g) != fed) {
      victim = s.sys.subgroup_leader(g);
      victim_group = g;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  s.sys.crash_peer(victim);
  ASSERT_TRUE(s.run_until_stable());
  const PeerId successor = s.sys.subgroup_leader(victim_group);
  EXPECT_NE(successor, kNoPeer);
  EXPECT_NE(successor, victim);
  const auto members = s.sys.fedavg_members();
  EXPECT_NE(std::find(members.begin(), members.end(), successor),
            members.end());
  EXPECT_EQ(std::find(members.begin(), members.end(), victim),
            members.end());
}

TEST(TwoLayerRaft, FedAvgLeaderCrashTriggersDoubleRecovery) {
  // §V-B1: the FedAvg leader is also a subgroup leader; both layers must
  // re-elect and the new subgroup leader must join.
  System s(9, 3, 11);
  s.sys.start_all();
  ASSERT_TRUE(s.run_until_stable());
  const PeerId old_fed = s.sys.fedavg_leader();
  const SubgroupId group = s.sys.topology().subgroup_of(old_fed);
  s.sys.crash_peer(old_fed);
  ASSERT_TRUE(s.run_until_stable());
  const PeerId new_fed = s.sys.fedavg_leader();
  EXPECT_NE(new_fed, kNoPeer);
  EXPECT_NE(new_fed, old_fed);
  const PeerId new_sub = s.sys.subgroup_leader(group);
  EXPECT_NE(new_sub, kNoPeer);
  EXPECT_NE(new_sub, old_fed);
  const auto members = s.sys.fedavg_members();
  EXPECT_NE(std::find(members.begin(), members.end(), new_sub),
            members.end());
  EXPECT_EQ(std::find(members.begin(), members.end(), old_fed),
            members.end());
}

TEST(TwoLayerRaft, SubgroupFollowerCrashIsHarmless) {
  System s(9, 3, 13);
  s.sys.start_all();
  ASSERT_TRUE(s.run_until_stable());
  // Crash a pure follower (neither subgroup leader nor FedAvg member).
  PeerId victim = kNoPeer;
  for (PeerId p : s.sys.topology().all_peers()) {
    bool is_leader = false;
    for (SubgroupId g = 0; g < 3; ++g) {
      if (s.sys.subgroup_leader(g) == p) is_leader = true;
    }
    if (!is_leader) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  const PeerId fed_before = s.sys.fedavg_leader();
  s.sys.crash_peer(victim);
  s.sim.run_for(2 * kSecond);
  EXPECT_TRUE(s.sys.stabilized());
  EXPECT_EQ(s.sys.fedavg_leader(), fed_before);
}

TEST(TwoLayerRaft, CrashedLeaderRestartsAsFollower) {
  System s(9, 3, 17);
  s.sys.start_all();
  ASSERT_TRUE(s.run_until_stable());
  const PeerId fed = s.sys.fedavg_leader();
  PeerId victim = kNoPeer;
  for (SubgroupId g = 0; g < 3; ++g) {
    if (s.sys.subgroup_leader(g) != fed) victim = s.sys.subgroup_leader(g);
  }
  s.sys.crash_peer(victim);
  ASSERT_TRUE(s.run_until_stable());
  s.sys.restart_peer(victim);
  s.sim.run_for(3 * kSecond);
  EXPECT_TRUE(s.sys.stabilized());
  EXPECT_FALSE(s.sys.subgroup_node(victim).is_leader());
  // The restarted peer was replaced in the FedAvg layer and stays out.
  const auto members = s.sys.fedavg_members();
  EXPECT_EQ(std::find(members.begin(), members.end(), victim),
            members.end());
}

TEST(TwoLayerRaft, FedAvgConfigPropagatesToSubgroupFollowers) {
  System s(9, 3, 19);
  s.sys.start_all();
  ASSERT_TRUE(s.run_until_stable());
  s.sim.run_for(2 * kSecond);  // a few config-commit intervals
  auto expected = s.sys.fedavg_members();
  std::sort(expected.begin(), expected.end());
  for (PeerId p : s.sys.topology().all_peers()) {
    auto known = s.sys.known_fedavg_config(p);
    std::sort(known.begin(), known.end());
    EXPECT_EQ(known, expected) << "peer " << p;
  }
}

TEST(TwoLayerRaft, ToleratesFollowerMinorityInEverySubgroup) {
  // §VII-D optimistic case: every subgroup can lose a follower minority.
  System s(15, 3, 23);  // subgroups of five
  s.sys.start_all();
  ASSERT_TRUE(s.run_until_stable());
  std::size_t crashed = 0;
  for (SubgroupId g = 0; g < 3; ++g) {
    std::size_t in_group = 0;
    for (PeerId p : s.sys.topology().group(g)) {
      if (p != s.sys.subgroup_leader(g) && in_group < 2) {
        s.sys.crash_peer(p);
        ++in_group;
        ++crashed;
      }
    }
  }
  EXPECT_EQ(crashed, 6u);
  s.sim.run_for(3 * kSecond);
  EXPECT_TRUE(s.sys.stabilized());
}

TEST(TwoLayerRaft, SequentialLeaderCrashesKeepRecovering) {
  System s(9, 3, 29);
  s.sys.start_all();
  ASSERT_TRUE(s.run_until_stable());
  // Crash the current FedAvg leader twice in a row (each subgroup of 3
  // tolerates one crash).
  for (int wave = 0; wave < 2; ++wave) {
    const PeerId fed = s.sys.fedavg_leader();
    ASSERT_NE(fed, kNoPeer) << "wave " << wave;
    s.sys.crash_peer(fed);
    ASSERT_TRUE(s.run_until_stable(20 * kSecond)) << "wave " << wave;
  }
}

TEST(TwoLayerRaft, HooksFireWithTimestamps) {
  System s(9, 3, 31);
  std::vector<SimTime> sub_elections, fed_elections, joins;
  s.sys.on_subgroup_leader = [&](SubgroupId, PeerId) {
    sub_elections.push_back(s.sim.now());
  };
  s.sys.on_fedavg_leader = [&](PeerId) {
    fed_elections.push_back(s.sim.now());
  };
  s.sys.on_fedavg_joined = [&](PeerId) { joins.push_back(s.sim.now()); };
  s.sys.start_all();
  ASSERT_TRUE(s.run_until_stable());
  EXPECT_GE(sub_elections.size(), 3u);
  EXPECT_GE(fed_elections.size(), 1u);
  // Cold start: designated bootstrap members may already be in config,
  // so joins only happen for non-designated first leaders.
  const PeerId fed = s.sys.fedavg_leader();
  PeerId victim = kNoPeer;
  SubgroupId vg = 0;
  for (SubgroupId g = 0; g < 3; ++g) {
    if (s.sys.subgroup_leader(g) != fed) {
      victim = s.sys.subgroup_leader(g);
      vg = g;
    }
  }
  joins.clear();
  const SimTime crash_time = s.sim.now();
  s.sys.crash_peer(victim);
  ASSERT_TRUE(s.run_until_stable());
  ASSERT_GE(joins.size(), 1u);
  EXPECT_GT(joins.back(), crash_time);
  EXPECT_NE(s.sys.subgroup_leader(vg), victim);
}

TEST(TwoLayerRaft, LongRunCompactsConfigLogsAndLateJoinerRecovers) {
  // The subgroup leader commits the FedAvg config every 200 ms; over a
  // long run the logs must stay bounded via snapshots, and a peer that
  // slept through most of it must recover the config from a snapshot.
  System s(9, 3, 41);
  s.sys.start_all();
  ASSERT_TRUE(s.run_until_stable());

  // Crash a pure follower early.
  PeerId victim = kNoPeer;
  for (PeerId p : s.sys.topology().all_peers()) {
    bool leader = false;
    for (SubgroupId g = 0; g < 3; ++g) {
      if (s.sys.subgroup_leader(g) == p) leader = true;
    }
    if (!leader) {
      victim = p;
      break;
    }
  }
  ASSERT_NE(victim, kNoPeer);
  s.sys.crash_peer(victim);

  s.sim.run_for(60 * kSecond);  // ~300 config commits
  const SubgroupId vg = s.sys.topology().subgroup_of(victim);
  const PeerId leader = s.sys.subgroup_leader(vg);
  ASSERT_NE(leader, kNoPeer);
  raft::RaftNode& leader_node = s.sys.subgroup_node(leader);
  EXPECT_GT(leader_node.snapshot_index(), 0u) << "log never compacted";
  EXPECT_LE(leader_node.last_log_index() - leader_node.snapshot_index(),
            2 * 64u)
      << "log grew unboundedly";

  s.sys.restart_peer(victim);
  s.sim.run_for(5 * kSecond);
  EXPECT_TRUE(s.sys.stabilized());
  auto expected = s.sys.fedavg_members();
  auto known = s.sys.known_fedavg_config(victim);
  std::sort(expected.begin(), expected.end());
  std::sort(known.begin(), known.end());
  EXPECT_EQ(known, expected);
}

// --- crash durability ----------------------------------------------------

/// Like System, but every Raft instance persists through a WAL under a
/// fresh per-test directory, and the TwoLayerRaftSystem can be torn
/// down and rebuilt over the same directory (a full process restart).
struct DurableSystem {
  explicit DurableSystem(std::size_t peers, std::size_t groups,
                         std::uint64_t seed = 42)
      : dir(fresh_dir()),
        peers(peers),
        groups(groups),
        sim(seed),
        net(sim, {.base_latency = 15 * kMillisecond}) {
    build();
  }

  static std::string fresh_dir() {
    static int counter = 0;
    return testing::TempDir() + "tlr_durable_" + std::to_string(::getpid()) +
           "_" + std::to_string(counter++);
  }

  void build() {
    TwoLayerRaftOptions opts = fast_options();
    opts.storage_dir = dir;
    sys = std::make_unique<TwoLayerRaftSystem>(
        Topology::even(peers, groups), opts, net);
  }

  /// Process restart: destroy every in-memory instance, rebuild the
  /// whole system from the write-ahead logs.
  void reboot() {
    sys.reset();
    build();
    sys->start_all();
  }

  bool run_until_stable(SimDuration budget = 10 * kSecond) {
    return net.transport().run_until([this] { return sys->stabilized(); },
                                     budget, 20 * kMillisecond);
  }

  std::string dir;
  std::size_t peers;
  std::size_t groups;
  sim::Simulator sim;
  net::Network net;
  std::unique_ptr<TwoLayerRaftSystem> sys;
};

TEST(TwoLayerRaftDurable, RestartReplaysWalWithoutStateTransfer) {
  DurableSystem s(9, 3);
  s.sys->start_all();
  ASSERT_TRUE(s.run_until_stable());
  s.sim.run_for(2 * kSecond);  // accumulate config commits in every log

  // Crash a follower briefly (shorter than the suspicion grace, so it is
  // not evicted while down).
  const SubgroupId g = 0;
  PeerId victim = kNoPeer;
  for (PeerId p : s.sys->topology().group(g)) {
    if (p != s.sys->subgroup_leader(g)) victim = p;
  }
  ASSERT_NE(victim, kNoPeer);
  const raft::Term term_before =
      s.sys->subgroup_node(victim).current_term();
  const raft::Index log_before =
      s.sys->subgroup_node(victim).last_log_index();
  ASSERT_GT(log_before, 0u);

  s.sys->crash_peer(victim);
  s.sim.run_for(300 * kMillisecond);
  s.sys->restart_peer(victim);

  // Durable mode rebuilt the node object from its WAL: the persisted
  // term and log survived the "process" death.
  raft::RaftNode& revived = s.sys->subgroup_node(victim);
  EXPECT_TRUE(revived.recovered_from_storage());
  EXPECT_GE(revived.current_term(), term_before);
  EXPECT_GE(revived.last_log_index(), log_before);

  ASSERT_TRUE(s.run_until_stable());
  s.sim.run_for(2 * kSecond);
  // The intact log caught up by plain replication — no snapshot install
  // (state transfer) was needed.
  EXPECT_EQ(s.sys->subgroup_node(victim).metrics().snapshot_installs, 0u);
  const PeerId leader = s.sys->subgroup_leader(g);
  ASSERT_NE(leader, kNoPeer);
  EXPECT_GE(s.sys->subgroup_node(victim).commit_index(),
            s.sys->subgroup_node(leader).snapshot_index());
}

TEST(TwoLayerRaftDurable, AmnesiaRestartDeletesTheWal) {
  DurableSystem s(9, 3);
  s.sys->start_all();
  ASSERT_TRUE(s.run_until_stable());
  s.sim.run_for(kSecond);

  const SubgroupId g = 1;
  PeerId victim = kNoPeer;
  for (PeerId p : s.sys->topology().group(g)) {
    if (p != s.sys->subgroup_leader(g)) victim = p;
  }
  ASSERT_NE(victim, kNoPeer);
  s.sys->crash_peer(victim);
  s.sim.run_for(300 * kMillisecond);
  s.sys->restart_peer_amnesia(victim);

  // Amnesia is literal: the WAL is gone, nothing was recovered, and the
  // blank node waits for the rejoin handshake.
  raft::RaftNode& blank = s.sys->subgroup_node(victim);
  EXPECT_FALSE(blank.recovered_from_storage());
  EXPECT_EQ(blank.current_term(), 0u);
  ASSERT_TRUE(s.run_until_stable(20 * kSecond));
  // After rejoining, the re-learned state persists again: a plain
  // durable restart now recovers it.
  s.sim.run_for(2 * kSecond);
  s.sys->crash_peer(victim);
  s.sim.run_for(300 * kMillisecond);
  s.sys->restart_peer(victim);
  EXPECT_TRUE(s.sys->subgroup_node(victim).recovered_from_storage());
  ASSERT_TRUE(s.run_until_stable(20 * kSecond));
}

TEST(TwoLayerRaftDurable, WholeClusterRebootsFromWals) {
  DurableSystem s(9, 3);
  s.sys->start_all();
  ASSERT_TRUE(s.run_until_stable());
  s.sim.run_for(3 * kSecond);
  std::vector<raft::Index> log_before;
  std::vector<raft::Term> term_before;
  for (PeerId p = 0; p < 9; ++p) {
    log_before.push_back(s.sys->subgroup_node(p).last_log_index());
    term_before.push_back(s.sys->subgroup_node(p).current_term());
  }

  // Kill the whole process and bring it back over the same directory.
  s.reboot();

  for (PeerId p = 0; p < 9; ++p) {
    raft::RaftNode& node = s.sys->subgroup_node(p);
    EXPECT_TRUE(node.recovered_from_storage()) << "peer " << p;
    EXPECT_GE(node.last_log_index(), log_before[p]) << "peer " << p;
    // Recovered terms forbid time travel: no revived node may grant a
    // vote it already cast or accept a stale leader.
    EXPECT_GE(node.current_term(), term_before[p]) << "peer " << p;
  }
  // Leadership re-randomizes after a full reboot (every node comes back
  // a follower), so assert structure, not identity: stabilized() checks
  // one leader per subgroup with the FedAvg membership exactly them.
  ASSERT_TRUE(s.run_until_stable(20 * kSecond));
  EXPECT_EQ(s.sys->fedavg_members().size(), 3u);
}

}  // namespace
}  // namespace p2pfl::core
