// Self-healing membership: leader-side failure detection with eviction
// through Raft single-server removal, the rejoin handshake (including
// from a wiped node), stale-config probes, and the health report the
// round driver uses to park quorum-dead subgroups.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/two_layer_raft.hpp"

namespace p2pfl::core {
namespace {

TwoLayerRaftOptions fast_options() {
  TwoLayerRaftOptions opts;
  opts.raft.election_timeout_min = 50 * kMillisecond;
  opts.raft.election_timeout_max = 100 * kMillisecond;
  opts.fedavg_presence_poll = 100 * kMillisecond;
  opts.config_commit_interval = 200 * kMillisecond;
  opts.suspicion_grace = 500 * kMillisecond;
  opts.membership_poll = 100 * kMillisecond;
  opts.rejoin_retry = 100 * kMillisecond;
  return opts;
}

SimDuration opts_poll_grace() { return fast_options().membership_poll; }

struct System {
  explicit System(std::size_t peers, std::size_t groups,
                  std::uint64_t seed = 42,
                  TwoLayerRaftOptions opts = fast_options())
      : sim(seed),
        net(sim, {.base_latency = 15 * kMillisecond}),
        sys(Topology::even(peers, groups), opts, net) {
    sys.on_peer_evicted = [this](PeerId p, bool fed_layer) {
      (fed_layer ? fed_evicted : sg_evicted).insert(p);
    };
    sys.on_peer_rejoined = [this](PeerId p) { rejoined.insert(p); };
  }

  bool run_until_stable(SimDuration budget = 10 * kSecond) {
    return net.transport().run_until([this] { return sys.stabilized(); },
                                     budget, 20 * kMillisecond);
  }

  /// Run until the victim's subgroup configuration no longer names it.
  bool run_until_evicted(PeerId victim, SimDuration budget = 10 * kSecond) {
    const SubgroupId g = sys.topology().subgroup_of(victim);
    return net.transport().run_until(
        [&] {
          const auto ev = sys.health().subgroups[g].evicted;
          return std::find(ev.begin(), ev.end(), victim) != ev.end();
        },
        budget, 50 * kMillisecond);
  }

  /// Run until every subgroup config is back to full topology strength
  /// with a live leader and no suspicions.
  bool run_until_healed(SimDuration budget = 20 * kSecond) {
    return net.transport().run_until(
        [this] { return sys.stabilized() && healed(); }, budget,
        50 * kMillisecond);
  }

  bool healed() const {
    const HealthReport hr = sys.health();
    if (hr.fedavg_leader == kNoPeer) return false;
    for (const SubgroupHealth& h : hr.subgroups) {
      if (h.leader == kNoPeer || h.parked) return false;
      if (!h.evicted.empty() || !h.suspected.empty()) return false;
    }
    return true;
  }

  /// A follower of some subgroup that leads nothing (neither layer).
  PeerId pure_follower() const {
    for (PeerId p : sys.topology().all_peers()) {
      bool leads = p == sys.fedavg_leader();
      for (SubgroupId g = 0; g < sys.topology().subgroup_count(); ++g) {
        if (sys.subgroup_leader(g) == p) leads = true;
      }
      if (!leads) return p;
    }
    return kNoPeer;
  }

  std::uint64_t counter(const std::string& name) {
    const auto& counters = sim.obs().metrics.counters();
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second.value();
  }

  sim::Simulator sim;
  net::Network net;
  TwoLayerRaftSystem sys;
  std::set<PeerId> sg_evicted, fed_evicted, rejoined;
};

TEST(Membership, CrashedFollowerIsSuspectedAndEvicted) {
  System s(9, 3);
  s.sys.start_all();
  ASSERT_TRUE(s.run_until_stable());
  const PeerId victim = s.pure_follower();
  ASSERT_NE(victim, kNoPeer);
  s.sys.crash_peer(victim);
  ASSERT_TRUE(s.run_until_evicted(victim));
  // The leader confirms the eviction (counter + hook) on its next
  // supervisor tick after adopting the shrunken configuration.
  s.sim.run_for(3 * opts_poll_grace());
  EXPECT_TRUE(s.sg_evicted.count(victim));
  EXPECT_GE(s.counter("membership.suspected"), 1u);
  EXPECT_GE(s.counter("membership.evicted"), 1u);
  // The other eight peers are untouched.
  const HealthReport hr = s.sys.health();
  for (const SubgroupHealth& h : hr.subgroups) {
    for (PeerId p : h.evicted) EXPECT_EQ(p, victim);
  }
}

TEST(Membership, TransientSilenceClearsSuspicionWithoutEviction) {
  // Block the links to one follower for less than the grace window: it
  // must be suspected at most, never evicted.
  TwoLayerRaftOptions opts = fast_options();
  opts.suspicion_grace = 2 * kSecond;
  System s(9, 3, 42, opts);
  s.sys.start_all();
  ASSERT_TRUE(s.run_until_stable());
  const PeerId victim = s.pure_follower();
  ASSERT_NE(victim, kNoPeer);
  for (PeerId p : s.sys.topology().all_peers()) {
    if (p == victim) continue;
    s.net.block_link(p, victim);
    s.net.block_link(victim, p);
  }
  s.sim.run_for(1 * kSecond);  // silent, but inside the grace window
  for (PeerId p : s.sys.topology().all_peers()) {
    if (p == victim) continue;
    s.net.unblock_link(p, victim);
    s.net.unblock_link(victim, p);
  }
  s.sim.run_for(3 * kSecond);
  EXPECT_EQ(s.counter("membership.evicted"), 0u);
  EXPECT_TRUE(s.sg_evicted.empty());
  const SubgroupHealth h =
      s.sys.health().subgroups[s.sys.topology().subgroup_of(victim)];
  EXPECT_TRUE(h.suspected.empty());
  EXPECT_TRUE(h.evicted.empty());
}

TEST(Membership, EvictedPeerRejoinsAfterRestart) {
  System s(9, 3);
  s.sys.start_all();
  ASSERT_TRUE(s.run_until_stable());
  const PeerId victim = s.pure_follower();
  ASSERT_NE(victim, kNoPeer);
  s.sys.crash_peer(victim);
  ASSERT_TRUE(s.run_until_evicted(victim));
  // The restarted node still holds a log that predates its own removal —
  // the stale-config case: it believes it is a member, so the rejoin is
  // driven by the silence probe, not by observing its own eviction.
  s.sys.restart_peer(victim);
  ASSERT_TRUE(s.run_until_healed());
  // health() reflects the leader's adopted config; give the re-add one
  // more hop to reach the victim, whose own adoption completes the
  // handshake bookkeeping.
  s.sim.run_for(5 * opts_poll_grace());
  EXPECT_TRUE(s.rejoined.count(victim));
  EXPECT_GE(s.counter("membership.rejoined"), 1u);
  const SubgroupHealth h =
      s.sys.health().subgroups[s.sys.topology().subgroup_of(victim)];
  EXPECT_NE(std::find(h.config.begin(), h.config.end(), victim),
            h.config.end());
}

TEST(Membership, AmnesiaRestartRejoinsFromABlankNode) {
  System s(9, 3, 7);
  s.sys.start_all();
  ASSERT_TRUE(s.run_until_stable());
  const PeerId victim = s.pure_follower();
  ASSERT_NE(victim, kNoPeer);
  s.sys.crash_peer(victim);
  ASSERT_TRUE(s.run_until_evicted(victim));
  // Wiped: empty log, empty configuration, term 0. The node can neither
  // campaign nor vote; only the rejoin handshake can bring it back.
  s.sys.restart_peer_amnesia(victim);
  ASSERT_TRUE(s.run_until_healed());
  s.sim.run_for(5 * opts_poll_grace());
  EXPECT_TRUE(s.rejoined.count(victim));
  EXPECT_EQ(s.counter("membership.amnesia_restarts"), 1u);
  const SubgroupHealth h =
      s.sys.health().subgroups[s.sys.topology().subgroup_of(victim)];
  EXPECT_NE(std::find(h.config.begin(), h.config.end(), victim),
            h.config.end());
}

TEST(Membership, QuorumDeadSubgroupIsParkedAndRecovers) {
  // Group of 3, quorum 2: crash the group's leader plus one follower
  // before eviction can shrink the config. The survivor cannot elect
  // itself, so the subgroup is structurally leaderless: parked.
  System s(9, 3, 11);
  s.sys.start_all();
  ASSERT_TRUE(s.run_until_stable());
  SubgroupId g = 0;
  if (s.sys.topology().subgroup_of(s.sys.fedavg_leader()) == g) g = 1;
  const auto& group = s.sys.topology().group(g);
  const PeerId sg_leader = s.sys.subgroup_leader(g);
  PeerId follower = kNoPeer, survivor = kNoPeer;
  for (PeerId p : group) {
    if (p == sg_leader) continue;
    if (follower == kNoPeer) {
      follower = p;
    } else {
      survivor = p;
    }
  }
  s.sys.crash_peer(sg_leader);
  s.sys.crash_peer(follower);
  s.sim.run_for(4 * kSecond);
  const SubgroupHealth before = s.sys.health().subgroups[g];
  EXPECT_EQ(before.leader, kNoPeer);
  EXPECT_TRUE(before.parked);
  EXPECT_EQ(before.live, std::vector<PeerId>{survivor});
  // One restart restores quorum: a leader emerges, the subgroup unparks,
  // evictions and rejoins heal the remaining damage.
  s.sys.restart_peer(follower);
  ASSERT_TRUE(s.run_until_stable(20 * kSecond));
  EXPECT_NE(s.sys.subgroup_leader(g), kNoPeer);
  s.sys.restart_peer(sg_leader);
  ASSERT_TRUE(s.run_until_healed());
  EXPECT_FALSE(s.sys.health().subgroups[g].parked);
}

TEST(Membership, HealthReportsDegradedThresholdWhileBelowNominal) {
  // Group of 4 with tolerance 1: nominal k = 3. Two members down leaves
  // 2 live, so the effective threshold clamps to 2 and the report says
  // degraded — exactly what the aggregation layer will run with.
  System s(8, 2, 13);
  s.sys.start_all();
  ASSERT_TRUE(s.run_until_stable());
  SubgroupId g = 0;
  if (s.sys.topology().subgroup_of(s.sys.fedavg_leader()) == g) g = 1;
  const PeerId sg_leader = s.sys.subgroup_leader(g);
  std::vector<PeerId> down;
  for (PeerId p : s.sys.topology().group(g)) {
    if (p != sg_leader && down.size() < 2) down.push_back(p);
  }
  for (PeerId p : down) s.sys.crash_peer(p);
  s.sim.run_for(4 * kSecond);
  const SubgroupHealth h = s.sys.health(/*sac_dropout_tolerance=*/1)
                               .subgroups[g];
  EXPECT_EQ(h.nominal_k, 3u);
  EXPECT_EQ(h.effective_k, 2u);
  EXPECT_TRUE(h.degraded);
  EXPECT_EQ(h.live.size(), 2u);
  // Both crashed members restart; the subgroup heals to full strength.
  for (PeerId p : down) s.sys.restart_peer(p);
  ASSERT_TRUE(s.run_until_healed());
  const SubgroupHealth healed = s.sys.health(1).subgroups[g];
  EXPECT_EQ(healed.effective_k, 3u);
  EXPECT_FALSE(healed.degraded);
}

}  // namespace
}  // namespace p2pfl::core
