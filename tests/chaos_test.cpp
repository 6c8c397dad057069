// Tier-1 tests for the chaos layer: stochastic network imperfection
// (loss / duplication / reordering / partitions), the ChaosEngine's
// deterministic fault plans, and the protocol hardening that lets SAC
// and the two-layer aggregator survive them.
//
// The central property throughout: faults may delay or kill a round, but
// any round that *does* commit carries the exact average of its
// contributing peers — duplicates never double-count, retransmissions
// never inject stale data.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/cost_model.hpp"
#include "chaos/engine.hpp"
#include "chaos/plan.hpp"
#include "chaos/soak.hpp"
#include "core/agg_cost_sim.hpp"
#include "core/topology.hpp"
#include "core/two_layer_agg.hpp"
#include "core/wire.hpp"
#include "net/mux.hpp"
#include "net/network.hpp"
#include "secagg/sac_actor.hpp"

namespace p2pfl::chaos {
namespace {

struct Recorder : net::Endpoint {
  std::vector<net::Envelope> got;
  void deliver(const net::Envelope& env) override { got.push_back(env); }
};

std::uint64_t counter_value(sim::Simulator& sim, const std::string& name) {
  const auto& counters = sim.obs().metrics.counters();
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second.value();
}

TEST(ChaosNet, DropEverythingDeliversNothingAndCountsDrops) {
  sim::Simulator sim(7);
  net::NetworkConfig cfg{.base_latency = 10 * kMillisecond};
  cfg.faults.drop_prob = 1.0;
  net::Network net(sim, cfg);
  Recorder r0, r1;
  net.attach(0, &r0);
  net.attach(1, &r1);
  for (int i = 0; i < 10; ++i) net.send(0, 1, "msg", i, 100);
  sim.run();
  EXPECT_TRUE(r1.got.empty());
  // The sender paid for the bytes (they left its NIC)...
  EXPECT_EQ(net.stats().sent.messages, 10u);
  // ...and every loss is accounted, in the stats table and the registry.
  EXPECT_EQ(net.stats().dropped_by_reason.at("chaos_loss"), 10u);
  EXPECT_EQ(counter_value(sim, "net.dropped.chaos_loss"), 10u);
  EXPECT_EQ(net.stats().delivered.messages, 0u);
}

TEST(ChaosNet, DuplicationDeliversEveryMessageTwice) {
  sim::Simulator sim(7);
  net::NetworkConfig cfg{.base_latency = 10 * kMillisecond};
  cfg.faults.duplicate_prob = 1.0;
  net::Network net(sim, cfg);
  Recorder r1;
  net.attach(0, &r1);  // sender must be attachable too
  net.attach(1, &r1);
  for (int i = 0; i < 5; ++i) net.send(0, 1, "msg", i, 100);
  sim.run();
  EXPECT_EQ(r1.got.size(), 10u);
  EXPECT_EQ(counter_value(sim, "net.chaos.duplicates"), 5u);
  // Send-side accounting counts the message once; the duplicate is a
  // network artifact, not a second transmission.
  EXPECT_EQ(net.stats().sent.messages, 5u);
}

TEST(ChaosNet, ReorderJitterShufflesArrivalOrder) {
  sim::Simulator sim(11);
  net::NetworkConfig cfg{.base_latency = 10 * kMillisecond};
  cfg.faults.reorder_prob = 1.0;
  cfg.faults.reorder_jitter = 500 * kMillisecond;
  net::Network net(sim, cfg);
  Recorder r1;
  net.attach(0, &r1);
  net.attach(1, &r1);
  std::vector<int> sent_order;
  for (int i = 0; i < 20; ++i) {
    sent_order.push_back(i);
    net.send(0, 1, "msg", i, 100);
  }
  sim.run();
  ASSERT_EQ(r1.got.size(), 20u);
  std::vector<int> arrival;
  for (const auto& env : r1.got) {
    arrival.push_back(std::any_cast<int>(env.body));
  }
  EXPECT_NE(arrival, sent_order);  // at least one pair overtook another
  std::sort(arrival.begin(), arrival.end());
  EXPECT_EQ(arrival, sent_order);  // ...but nothing was lost or duplicated
}

TEST(ChaosNet, PartitionBlocksCrossGroupTrafficUntilHealed) {
  sim::Simulator sim(7);
  net::Network net(sim, {.base_latency = 10 * kMillisecond});
  Recorder r;
  for (PeerId p = 0; p < 4; ++p) net.attach(p, &r);
  net.partition({{0, 1}, {2, 3}});
  EXPECT_TRUE(net.partition_active());
  EXPECT_FALSE(net.partitioned(0, 1));
  EXPECT_TRUE(net.partitioned(0, 2));
  net.send(0, 1, "a", 0, 10);  // same side: flows
  net.send(0, 2, "b", 0, 10);  // across: dropped at send time
  sim.run();
  EXPECT_EQ(r.got.size(), 1u);
  EXPECT_EQ(r.got[0].kind, "a");
  EXPECT_EQ(net.stats().dropped_by_reason.at("partitioned"), 1u);
  net.heal();
  EXPECT_FALSE(net.partition_active());
  net.send(0, 2, "b", 0, 10);
  sim.run();
  EXPECT_EQ(r.got.size(), 2u);
}

TEST(ChaosNet, UnlistedPeersShareTheImplicitPartitionGroup) {
  sim::Simulator sim(7);
  net::Network net(sim, {.base_latency = 10 * kMillisecond});
  Recorder r;
  for (PeerId p = 0; p < 3; ++p) net.attach(p, &r);
  net.partition({{0}});  // isolate peer 0; 1 and 2 stay connected
  EXPECT_TRUE(net.partitioned(0, 1));
  EXPECT_TRUE(net.partitioned(2, 0));
  EXPECT_FALSE(net.partitioned(1, 2));
}

TEST(ChaosNet, DropTableMirrorsObsCountersAcrossReasons) {
  sim::Simulator sim(7);
  net::NetworkConfig cfg{.base_latency = 10 * kMillisecond};
  cfg.faults.drop_prob = 1.0;
  net::Network net(sim, cfg);
  Recorder r;
  net.attach(0, &r);
  net.attach(1, &r);
  net.crash(2);
  net.send(2, 1, "x", 0, 10);  // sender_crashed
  net.send(0, 1, "x", 0, 10);  // chaos_loss
  sim.run();
  for (const auto& [reason, count] : net.stats().dropped_by_reason) {
    EXPECT_EQ(counter_value(sim, "net.dropped." + reason), count) << reason;
  }
  EXPECT_EQ(net.stats().dropped_by_reason.size(), 2u);
}

TEST(ChaosEngineTest, ExecutesPlannedCrashAndRestart) {
  sim::Simulator sim(7);
  net::Network net(sim, {.base_latency = 10 * kMillisecond});
  ChaosPlan plan;
  plan.crash_for(100 * kMillisecond, 3, 400 * kMillisecond);
  ChaosEngine engine(net, plan);
  engine.start();
  sim.run_for(200 * kMillisecond);
  EXPECT_TRUE(net.crashed(3));
  EXPECT_TRUE(engine.peer_down(3));
  EXPECT_EQ(engine.crashes(), 1u);
  sim.run_for(400 * kMillisecond);  // restart at t=500ms
  EXPECT_FALSE(net.crashed(3));
  EXPECT_EQ(engine.restarts(), 1u);
  EXPECT_EQ(engine.peers_down(), 0u);
  EXPECT_EQ(counter_value(sim, "chaos.crash"), 1u);
  EXPECT_EQ(counter_value(sim, "chaos.restart"), 1u);
}

TEST(ChaosEngineTest, FaultWindowSetsAndRestoresNetworkDefaults) {
  sim::Simulator sim(7);
  net::Network net(sim, {.base_latency = 10 * kMillisecond});
  ChaosPlan plan;
  plan.fault_window(100 * kMillisecond, 500 * kMillisecond,
                    {.drop_prob = 0.5, .duplicate_prob = 0.25});
  ChaosEngine engine(net, plan);
  engine.start();
  EXPECT_EQ(net.config().faults.drop_prob, 0.0);
  sim.run_for(200 * kMillisecond);
  EXPECT_EQ(net.config().faults.drop_prob, 0.5);
  EXPECT_EQ(net.config().faults.duplicate_prob, 0.25);
  sim.run_for(400 * kMillisecond);
  EXPECT_EQ(net.config().faults.drop_prob, 0.0);
  EXPECT_EQ(net.config().faults.duplicate_prob, 0.0);
}

TEST(ChaosEngineTest, PartitionWindowAppliesAndHeals) {
  sim::Simulator sim(7);
  net::Network net(sim, {.base_latency = 10 * kMillisecond});
  ChaosPlan plan;
  plan.partition_window(100 * kMillisecond, 300 * kMillisecond,
                        {{0}, {1, 2}});
  ChaosEngine engine(net, plan);
  engine.start();
  EXPECT_FALSE(net.partition_active());
  sim.run_for(150 * kMillisecond);
  EXPECT_TRUE(net.partition_active());
  EXPECT_TRUE(net.partitioned(0, 1));
  sim.run_for(250 * kMillisecond);
  EXPECT_FALSE(net.partition_active());
}

/// What start() rejects `plan` with ("" when it accepts the plan).
std::string start_error(const ChaosPlan& plan) {
  sim::Simulator sim(7);
  net::Network net(sim, {.base_latency = 10 * kMillisecond});
  ChaosEngine engine(net, plan);
  try {
    engine.start();
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(ChaosEngineTest, RejectsOverlappingFaultWindows) {
  constexpr SimDuration ms = kMillisecond;
  ChaosPlan crossing;
  crossing.fault_window(100 * ms, 500 * ms, {.drop_prob = 0.25});
  crossing.fault_window(300 * ms, 700 * ms, {.drop_prob = 0.75});
  const std::string err = start_error(crossing);
  EXPECT_NE(err.find("overlapping fault windows [100000, 500000) us and "
                     "[300000, 700000) us"),
            std::string::npos)
      << err;

  // Touching windows listed out of order: both events at 500 ms would
  // fire in listing order, the close after the open.
  ChaosPlan touching;
  touching.fault_window(500 * ms, 900 * ms, {.drop_prob = 0.75});
  touching.fault_window(100 * ms, 500 * ms, {.drop_prob = 0.25});
  EXPECT_NE(start_error(touching).find("overlapping fault windows"),
            std::string::npos);

  ChaosPlan open_ended;  // a window without an end never closes
  open_ended.fault_window(100 * ms, 0, {.drop_prob = 0.25});
  open_ended.fault_window(5 * kSecond, 6 * kSecond, {.drop_prob = 0.75});
  EXPECT_NE(start_error(open_ended).find("[100000, never) us"),
            std::string::npos);

  ChaosPlan apart;
  apart.fault_window(100 * ms, 300 * ms, {.drop_prob = 0.25});
  apart.fault_window(400 * ms, 700 * ms, {.drop_prob = 0.75});
  EXPECT_EQ(start_error(apart), "");
}

TEST(ChaosEngineTest, RejectsOverlappingPartitionWindows) {
  constexpr SimDuration ms = kMillisecond;
  ChaosPlan crossing;
  crossing.partition_window(100 * ms, 500 * ms, {{0}, {1, 2}});
  crossing.partition_window(300 * ms, 700 * ms, {{1}, {0, 2}});
  const std::string err = start_error(crossing);
  EXPECT_NE(err.find("overlapping partition windows [100000, 500000) us "
                     "and [300000, 700000) us"),
            std::string::npos)
      << err;

  ChaosPlan touching;  // the heal at 300 ms would end the second split
  touching.partition_window(100 * ms, 300 * ms, {{0}, {1, 2}});
  touching.partition_window(300 * ms, 500 * ms, {{1}, {0, 2}});
  EXPECT_NE(start_error(touching).find("overlapping partition windows"),
            std::string::npos);

  ChaosPlan apart;
  apart.partition_window(100 * ms, 300 * ms, {{0}, {1, 2}});
  apart.partition_window(400 * ms, 500 * ms, {{1}, {0, 2}});
  EXPECT_EQ(start_error(apart), "");
}

TEST(ChaosEngineTest, RejectsOverlappingThrottleWindowsOnOnePeer) {
  constexpr SimDuration ms = kMillisecond;
  ChaosPlan nested;
  nested.throttle_window(0, 2 * kSecond, 4, 1'000'000);
  nested.throttle_window(500 * ms, kSecond, 4, 4'000'000);
  const std::string err = start_error(nested);
  EXPECT_NE(err.find("overlapping peer 4 throttle windows [0, 2000000) us "
                     "and [500000, 1000000) us"),
            std::string::npos)
      << err;

  // Other peers' windows, and back-to-back windows on one peer, are fine.
  ChaosPlan fine;
  fine.throttle_window(0, 2 * kSecond, 4, 1'000'000);
  fine.throttle_window(500 * ms, kSecond, 5, 4'000'000);
  fine.throttle_window(2 * kSecond, 3 * kSecond, 4, 4'000'000);
  EXPECT_EQ(start_error(fine), "");
}

using ChurnLog = std::vector<std::tuple<SimTime, PeerId, bool>>;

ChurnLog run_churn(std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim, {.base_latency = 10 * kMillisecond});
  ChurnLog log;
  ChaosEngineHooks hooks;
  hooks.crash = [&](PeerId p) {
    log.emplace_back(sim.now(), p, false);
    net.crash(p);
  };
  hooks.restart = [&](PeerId p) {
    log.emplace_back(sim.now(), p, true);
    net.restore(p);
  };
  ChurnSpec churn;
  churn.start = 0;
  churn.end = 5 * kSecond;
  churn.mttf = 300 * kMillisecond;
  churn.mttr = 100 * kMillisecond;
  churn.peers = {0, 1, 2, 3, 4, 5};
  churn.max_concurrent_down = 2;
  ChaosPlan plan;
  plan.churn(churn);
  ChaosEngine engine(net, plan, hooks);
  engine.start();
  sim.run_for(6 * kSecond);
  return log;
}

TEST(ChaosEngineTest, ChurnIsSeedDeterministic) {
  const ChurnLog a = run_churn(2024);
  const ChurnLog b = run_churn(2024);
  const ChurnLog c = run_churn(2025);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);  // identical seed: identical fault timeline
  EXPECT_NE(a, c);  // different seed: different draws
}

TEST(ChaosEngineTest, ChurnRespectsConcurrencyGuard) {
  sim::Simulator sim(99);
  net::Network net(sim, {.base_latency = 10 * kMillisecond});
  ChurnSpec churn;
  churn.start = 0;
  churn.end = 5 * kSecond;
  churn.mttf = 100 * kMillisecond;  // aggressive: far more failure
  churn.mttr = 400 * kMillisecond;  // draws than the guard admits
  churn.peers = {0, 1, 2, 3, 4, 5, 6, 7};
  churn.max_concurrent_down = 3;
  ChaosPlan plan;
  plan.churn(churn);
  ChaosEngine engine(net, plan);
  engine.start();
  std::size_t max_down = 0;
  for (int i = 0; i < 60; ++i) {
    sim.run_for(100 * kMillisecond);
    max_down = std::max(max_down, engine.peers_down());
  }
  EXPECT_GT(engine.crashes(), 0u);
  EXPECT_LE(max_down, 3u);
}

TEST(ChaosEngineTest, RedundantCrashAndRestartNoOpInsteadOfRefiring) {
  // Overlapping plan entries must not re-run the crash/restart hooks:
  // double-crashing a system peer would cancel its timers twice and
  // double-restarting would re-arm them, so the engine records the
  // redundancy and does nothing.
  sim::Simulator sim(7);
  net::Network net(sim, {.base_latency = 10 * kMillisecond});
  std::size_t crash_calls = 0, restart_calls = 0;
  ChaosEngineHooks hooks;
  hooks.crash = [&](PeerId p) {
    ++crash_calls;
    net.crash(p);
  };
  hooks.restart = [&](PeerId p) {
    ++restart_calls;
    net.restore(p);
  };
  ChaosPlan plan;
  plan.crash_at(100 * kMillisecond, 3)
      .crash_at(150 * kMillisecond, 3)   // redundant: already down
      .restart_at(300 * kMillisecond, 3)
      .restart_at(350 * kMillisecond, 3)  // redundant: already up
      .restart_at(400 * kMillisecond, 5);  // redundant: never crashed
  ChaosEngine engine(net, plan, hooks);
  engine.start();
  sim.run_for(1 * kSecond);
  EXPECT_EQ(crash_calls, 1u);
  EXPECT_EQ(restart_calls, 1u);
  EXPECT_EQ(engine.crashes(), 1u);
  EXPECT_EQ(engine.restarts(), 1u);
  EXPECT_EQ(engine.redundant_faults(), 3u);
  EXPECT_EQ(counter_value(sim, "chaos.redundant"), 3u);
  // Redundant requests are not injected faults.
  EXPECT_EQ(engine.faults_injected(), 2u);
}

TEST(ChaosEngineTest, AmnesiaRestartDispatchesToTheAmnesiaHook) {
  sim::Simulator sim(7);
  net::Network net(sim, {.base_latency = 10 * kMillisecond});
  std::vector<std::pair<PeerId, bool>> restarts;  // (peer, amnesia)
  ChaosEngineHooks hooks;
  hooks.restart = [&](PeerId p) {
    restarts.emplace_back(p, false);
    net.restore(p);
  };
  hooks.restart_amnesia = [&](PeerId p) {
    restarts.emplace_back(p, true);
    net.restore(p);
  };
  ChaosPlan plan;
  plan.crash_for(100 * kMillisecond, 1, 200 * kMillisecond);
  plan.crash_for(100 * kMillisecond, 2, 200 * kMillisecond,
                 /*amnesia=*/true);
  ChaosEngine engine(net, plan, hooks);
  engine.start();
  sim.run_for(1 * kSecond);
  ASSERT_EQ(restarts.size(), 2u);
  EXPECT_EQ(engine.restarts(), 2u);
  EXPECT_EQ(engine.amnesia_restarts(), 1u);
  for (const auto& [peer, amnesia] : restarts) {
    EXPECT_EQ(amnesia, peer == 2) << "peer " << peer;
  }
  EXPECT_EQ(counter_value(sim, "chaos.restart"), 1u);
  EXPECT_EQ(counter_value(sim, "chaos.amnesia_restart"), 1u);
}

TEST(ChaosEngineTest, AmnesiaFallsBackToPlainRestartWithoutAHook) {
  sim::Simulator sim(7);
  net::Network net(sim, {.base_latency = 10 * kMillisecond});
  ChaosPlan plan;
  plan.crash_for(100 * kMillisecond, 4, 200 * kMillisecond,
                 /*amnesia=*/true);
  ChaosEngine engine(net, plan);  // default hooks: net.crash/net.restore
  engine.start();
  sim.run_for(1 * kSecond);
  EXPECT_FALSE(net.crashed(4));
  EXPECT_EQ(engine.amnesia_restarts(), 1u);
}

TEST(ChaosEngineTest, ChurnAmnesiaProbabilityControlsRestartKind) {
  auto churn_with = [](double amnesia_prob) {
    sim::Simulator sim(5);
    net::Network net(sim, {.base_latency = 10 * kMillisecond});
    ChurnSpec churn;
    churn.start = 0;
    churn.end = 5 * kSecond;
    churn.mttf = 300 * kMillisecond;
    churn.mttr = 100 * kMillisecond;
    churn.peers = {0, 1, 2, 3};
    churn.amnesia_prob = amnesia_prob;
    ChaosPlan plan;
    plan.churn(churn);
    ChaosEngine engine(net, plan);
    engine.start();
    sim.run_for(6 * kSecond);
    return std::make_pair(engine.restarts(), engine.amnesia_restarts());
  };
  const auto [plain_total, plain_amnesia] = churn_with(0.0);
  EXPECT_GT(plain_total, 0u);
  EXPECT_EQ(plain_amnesia, 0u);
  const auto [always_total, always_amnesia] = churn_with(1.0);
  EXPECT_GT(always_total, 0u);
  EXPECT_EQ(always_amnesia, always_total);
}

// --- protocol hardening ----------------------------------------------------

// A subgroup of SacPeers over a faulty network; peer i contributes
// (i+1)*ones, so the exact average is (n+1)/2.
struct LossySac {
  LossySac(std::size_t n, secagg::SacActorOptions opts,
           net::LinkFaults faults, std::uint64_t seed)
      : sim(seed),
        net(sim,
            net::NetworkConfig{.base_latency = 15 * kMillisecond,
                               .faults = faults}) {
    for (PeerId id = 0; id < n; ++id) {
      group.push_back(id);
      hosts.push_back(std::make_unique<net::PeerHost>());
      net.attach(id, hosts.back().get());
      peers.push_back(std::make_unique<secagg::SacPeer>(
          id, "sac/chaos", opts, net, *hosts.back()));
      peers.back()->on_complete = [this, id](secagg::RoundId r,
                                             const secagg::Vector& avg) {
        results[id] = std::make_pair(r, avg);
      };
    }
  }
  void begin(secagg::RoundId round, std::size_t leader_pos) {
    for (PeerId id = 0; id < peers.size(); ++id) {
      secagg::Vector v(8, static_cast<float>(id + 1));
      peers[id]->begin_round(round, std::move(v), group, leader_pos);
    }
  }
  sim::Simulator sim;
  net::Network net;
  std::vector<PeerId> group;
  std::vector<std::unique_ptr<net::PeerHost>> hosts;
  std::vector<std::unique_ptr<secagg::SacPeer>> peers;
  std::map<PeerId, std::pair<secagg::RoundId, secagg::Vector>> results;
};

TEST(ChaosSac, CompletedRoundIsExactUnderLossAndDuplication) {
  // The chaos property from the issue: loss and duplication may slow a
  // round down (retransmissions), but a round that completes yields the
  // exact true average — never a double-counted or partial one.
  for (std::uint64_t seed : {3u, 11u, 42u}) {
    secagg::SacActorOptions opts;
    opts.k = 4;
    opts.share_timeout = 100 * kMillisecond;
    opts.subtotal_timeout = 100 * kMillisecond;
    opts.share_retry_limit = 10;
    net::LinkFaults faults;
    faults.drop_prob = 0.15;
    faults.duplicate_prob = 0.15;
    LossySac s(6, opts, faults, seed);
    s.begin(1, 2);
    s.sim.run_for(60 * kSecond);
    ASSERT_TRUE(s.results.count(2)) << "round never completed, seed "
                                    << seed;
    for (float v : s.results[2].second) {
      EXPECT_NEAR(v, 3.5f, 1e-3f) << "seed " << seed;
    }
    EXPECT_GT(counter_value(s.sim, "net.dropped.chaos_loss"), 0u);
  }
}

TEST(ChaosSac, TotalDuplicationNeverDoubleCounts) {
  // Every single message delivered twice: idempotent handlers must keep
  // the average exact (a double-counted share would shift it).
  secagg::SacActorOptions opts;
  opts.k = 3;
  net::LinkFaults faults;
  faults.duplicate_prob = 1.0;
  LossySac s(5, opts, faults, 7);
  s.begin(1, 0);
  s.sim.run();
  ASSERT_TRUE(s.results.count(0));
  for (float v : s.results[0].second) {
    EXPECT_NEAR(v, 3.0f, 1e-4f);
  }
  EXPECT_EQ(counter_value(s.sim, "net.chaos.duplicates"),
            counter_value(s.sim, "net.sent.messages"));
}

// --- corruption faults ------------------------------------------------------

TEST(ChaosCorrupt, TruncationAlwaysDropsWithCorruptReason) {
  // Strict decoders reject every proper prefix, so a truncated frame
  // can never reach the actor: it is dropped under its own reason,
  // before any delivered accounting.
  core::wire::register_codecs();  // "join" codec
  sim::Simulator sim(7);
  net::NetworkConfig cfg{.base_latency = 10 * kMillisecond};
  cfg.faults.truncate_prob = 1.0;
  net::Network net(sim, cfg);
  Recorder r0, r1;
  net.attach(0, &r0);
  net.attach(1, &r1);
  for (int i = 0; i < 10; ++i) {
    net.send(0, 1, "join", core::wire::JoinRequestMsg{0, kNoPeer},
             core::wire::kJoinWire);
  }
  sim.run();
  EXPECT_TRUE(r1.got.empty());
  EXPECT_EQ(net.stats().sent.messages, 10u);
  EXPECT_EQ(net.stats().delivered.messages, 0u);
  EXPECT_EQ(net.stats().dropped_by_reason.at("corrupt"), 10u);
  EXPECT_EQ(counter_value(sim, "net.chaos.corrupted"), 10u);
  EXPECT_EQ(counter_value(sim, "net.dropped.corrupt"), 10u);
}

TEST(ChaosCorrupt, BitFlipDeliversTypedPayloadOrDrops) {
  // A single flipped bit either survives strict decoding — in which
  // case the actor receives a well-formed *typed* payload, never raw
  // bytes — or the frame is dropped as corrupt. Nothing else.
  core::wire::register_codecs();
  sim::Simulator sim(8);
  net::NetworkConfig cfg{.base_latency = 10 * kMillisecond};
  cfg.faults.corrupt_prob = 1.0;
  net::Network net(sim, cfg);
  Recorder r0, r1;
  net.attach(0, &r0);
  net.attach(1, &r1);
  const int kSends = 200;
  for (int i = 0; i < kSends; ++i) {
    net.send(0, 1, "join", core::wire::JoinRequestMsg{5, 9},
             core::wire::kJoinWire);
  }
  sim.run();
  EXPECT_EQ(counter_value(sim, "net.chaos.corrupted"),
            static_cast<std::uint64_t>(kSends));
  const auto& dropped = net.stats().dropped_by_reason;
  const std::uint64_t corrupt_drops =
      dropped.count("corrupt") ? dropped.at("corrupt") : 0;
  EXPECT_EQ(r1.got.size() + corrupt_drops,
            static_cast<std::size_t>(kSends));
  // An 8-byte join frame has no length fields, so every flip decodes —
  // into a value that differs from the original in exactly one bit.
  for (const auto& env : r1.got) {
    const auto* req = net::payload<core::wire::JoinRequestMsg>(env.body);
    ASSERT_NE(req, nullptr);
    EXPECT_TRUE(req->candidate != 5 || req->stale_representative != 9);
  }
}

TEST(ChaosCorrupt, KindsWithoutCodecsPassThroughUndamaged) {
  // Corruption operates on real encodings; a raw test kind has none, so
  // the fault leaves it untouched rather than guessing at its bytes.
  sim::Simulator sim(9);
  net::NetworkConfig cfg{.base_latency = 10 * kMillisecond};
  cfg.faults.corrupt_prob = 1.0;
  cfg.faults.truncate_prob = 1.0;
  net::Network net(sim, cfg);
  Recorder r0, r1;
  net.attach(0, &r0);
  net.attach(1, &r1);
  for (int i = 0; i < 5; ++i) net.send(0, 1, "msg", i, 100);
  sim.run();
  ASSERT_EQ(r1.got.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(std::any_cast<int>(r1.got[static_cast<std::size_t>(i)].body),
              i);
  }
  EXPECT_EQ(counter_value(sim, "net.chaos.corrupted"), 0u);
}

TEST(ChaosCorrupt, SacRoundsCompleteAndStayExactUnderTruncation) {
  // Truncated frames are always rejected by the strict decoders, so the
  // retry machinery sees them as ordinary losses: rounds still converge
  // to the exact average.
  for (std::uint64_t seed : {5u, 23u}) {
    secagg::SacActorOptions opts;
    opts.k = 4;
    opts.share_timeout = 100 * kMillisecond;
    opts.subtotal_timeout = 100 * kMillisecond;
    opts.share_retry_limit = 10;
    net::LinkFaults faults;
    faults.truncate_prob = 0.15;
    LossySac s(6, opts, faults, seed);
    s.begin(1, 2);
    s.sim.run_for(60 * kSecond);
    ASSERT_TRUE(s.results.count(2)) << "round never completed, seed "
                                    << seed;
    for (float v : s.results[2].second) {
      EXPECT_NEAR(v, 3.5f, 1e-3f) << "seed " << seed;
    }
    EXPECT_GT(counter_value(s.sim, "net.chaos.corrupted"), 0u)
        << "seed " << seed;
    EXPECT_GT(counter_value(s.sim, "net.dropped.corrupt"), 0u)
        << "seed " << seed;
  }
}

TEST(ChaosCorrupt, SacRoundsCompleteUnderLowRateBitFlips) {
  // Bit flips are nastier than truncation: a flip in a float payload
  // decodes fine and delivers a damaged value (there is no checksum —
  // exactness is out of reach, like UDP without one), while a flip in a
  // framing field is rejected and retried. Either way liveness holds:
  // the round terminates with a well-formed result vector.
  for (std::uint64_t seed : {5u, 23u}) {
    secagg::SacActorOptions opts;
    opts.k = 4;
    opts.share_timeout = 100 * kMillisecond;
    opts.subtotal_timeout = 100 * kMillisecond;
    opts.share_retry_limit = 10;
    net::LinkFaults faults;
    faults.corrupt_prob = 0.10;
    LossySac s(6, opts, faults, seed);
    s.begin(1, 2);
    s.sim.run_for(60 * kSecond);
    ASSERT_TRUE(s.results.count(2)) << "round never completed, seed "
                                    << seed;
    EXPECT_EQ(s.results[2].second.size(), 8u) << "seed " << seed;
    EXPECT_GT(counter_value(s.sim, "net.chaos.corrupted"), 0u)
        << "seed " << seed;
  }
}

TEST(ChaosAgg, DuplicationKeepsDeliveredBytesAtPaperCounts) {
  // Eq. (4) regression: with every message duplicated in flight
  // (duplicate_prob = 1, no loss) the *delivered* per-kind accounting
  // must still equal the paper's protocol byte counts exactly. The
  // duplicated copies are real deliveries — the actors see them — but
  // they ride under distinct "dup:<kind>" labels and the `duplicated`
  // counter, never under `delivered`.
  constexpr std::uint64_t kWire = 1u << 20;
  sim::Simulator sim(21);
  net::NetworkConfig ncfg{.base_latency = 15 * kMillisecond};
  ncfg.faults.duplicate_prob = 1.0;
  net::Network net(sim, ncfg);
  core::AggregationConfig cfg;
  cfg.model_wire_bytes = kWire;
  const core::FixedLeaderRound run(
      net, core::Topology::even(9, 3), cfg,
      [](PeerId id) { return secagg::Vector(4, static_cast<float>(id + 1)); });
  ASSERT_TRUE(run.completed);
  for (float v : run.global) EXPECT_NEAR(v, 5.0f, 1e-4f);  // mean of 1..9

  const net::TrafficStats& st = net.stats();
  // No loss: every original arrives, so delivered == sent, per kind and
  // byte-exactly, despite the duplicate deliveries.
  EXPECT_EQ(st.delivered.messages, st.sent.messages);
  EXPECT_EQ(st.delivered.bytes, st.sent.bytes);
  for (const auto& [kind, sent] : st.sent_by_kind) {
    ASSERT_TRUE(st.delivered_by_kind.count(kind)) << kind;
    EXPECT_EQ(st.delivered_by_kind.at(kind).messages, sent.messages)
        << kind;
    EXPECT_EQ(st.delivered_by_kind.at(kind).bytes, sent.bytes) << kind;
  }
  // Each non-self message was duplicated exactly once; the copies are
  // all accounted under "dup:" labels.
  EXPECT_EQ(st.duplicated.messages, st.sent.messages);
  EXPECT_EQ(st.duplicated.bytes, st.sent.bytes);
  std::uint64_t dup_msgs = 0;
  for (const auto& [kind, c] : st.delivered_by_kind) {
    if (kind.rfind("dup:", 0) == 0) dup_msgs += c.messages;
  }
  EXPECT_EQ(dup_msgs, st.duplicated.messages);
  EXPECT_EQ(counter_value(sim, "net.delivered.dup.messages"),
            st.duplicated.messages);
  EXPECT_EQ(counter_value(sim, "net.delivered.dup.bytes"),
            st.duplicated.bytes);
  // The headline number: the delivered model payload still sums to the
  // paper's Eq. (4) cost, mn^2 + mn - 2 model transfers for m = n = 3.
  double units = 0.0;
  for (const auto& [kind, c] : st.delivered_by_kind) {
    if (kind.rfind("dup:", 0) != 0) units += static_cast<double>(c.payload);
  }
  units /= static_cast<double>(kWire);
  EXPECT_DOUBLE_EQ(units, analysis::two_layer_cost_eq4(3, 3));
}

TEST(ChaosAgg, UploadRetryRecoversFromUploadLossWindow) {
  // Every upload is lost for the first 1.2 s: under the designated
  // leadership of even(9, 3) the links 3->0 and 6->0 carry only the
  // subgroup leaders' "agg/upload" transfers to the FedAvg leader, and
  // both stay blocked until then. The leaders' capped-backoff retries
  // deliver the uploads afterwards and the round commits with every
  // subgroup included.
  sim::Simulator sim(5);
  net::Network net(sim, {.base_latency = 15 * kMillisecond});
  const core::Topology topo = core::Topology::even(9, 3);
  core::AggregationConfig cfg;
  cfg.collect_timeout = 30 * kSecond;
  cfg.upload_retry = 400 * kMillisecond;
  core::TwoLayerAggregator agg(topo, cfg, net);
  std::optional<secagg::Vector> global;
  std::size_t groups_used = 0;
  agg.on_global_model = [&](std::uint64_t, const secagg::Vector& g,
                            std::size_t used) {
    global = g;
    groups_used = used;
  };
  net.block_link(3, 0);
  net.block_link(6, 0);
  sim.schedule_at(1200 * kMillisecond, [&] {
    net.unblock_link(3, 0);
    net.unblock_link(6, 0);
  });
  agg.begin_round(1, core::RoundLeadership::designated(topo), [](PeerId id) {
    return secagg::Vector(4, static_cast<float>(id + 1));
  });
  sim.run_for(30 * kSecond);
  ASSERT_TRUE(global.has_value());
  EXPECT_EQ(groups_used, 3u);
  EXPECT_EQ(agg.last_contributors().size(), 9u);
  for (float v : *global) EXPECT_NEAR(v, 5.0f, 1e-4f);  // mean of 1..9
  EXPECT_GE(counter_value(sim, "agg.upload_retries"), 2u);
  EXPECT_GT(counter_value(sim, "net.dropped.link_blocked"), 0u);
}

// --- chaos soak (fast configuration; the long one lives in the slow
// suite, see chaos_soak_test.cpp) -------------------------------------------

ChaosSoakConfig fast_soak_config(std::uint64_t seed) {
  ChaosSoakConfig cfg;
  cfg.peers = 12;
  cfg.groups = 3;
  cfg.rounds = 8;
  cfg.dim = 4;
  cfg.seed = seed;
  cfg.round_interval = 1 * kSecond;
  cfg.net.faults.drop_prob = 0.05;
  cfg.net.faults.duplicate_prob = 0.05;
  cfg.churn_mttf = 5 * kSecond;
  cfg.churn_mttr = 700 * kMillisecond;
  return cfg;
}

TEST(ChaosSoak, FastSoakStaysLiveAndExact) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const ChaosSoakResult res = run_chaos_soak(fast_soak_config(seed));
    EXPECT_TRUE(res.liveness_ok) << "seed " << seed;
    EXPECT_TRUE(res.all_commits_exact)
        << "seed " << seed << " max error " << res.max_abs_error;
    EXPECT_GE(res.rounds_committed, 3u) << "seed " << seed;
    EXPECT_EQ(res.rounds_started,
              res.rounds_committed + res.rounds_aborted);
  }
}

TEST(ChaosSoak, SoakStaysLiveAndExactUnderTruncation) {
  // Loss + duplication + churn + truncation all at once: truncated
  // frames never survive the strict decoders, so committed rounds stay
  // exact and the rejects land in the drop table.
  for (std::uint64_t seed : {1u, 6u}) {
    ChaosSoakConfig cfg = fast_soak_config(seed);
    cfg.net.faults.truncate_prob = 0.03;
    const ChaosSoakResult res = run_chaos_soak(cfg);
    EXPECT_TRUE(res.liveness_ok) << "seed " << seed;
    EXPECT_TRUE(res.all_commits_exact)
        << "seed " << seed << " max error " << res.max_abs_error;
    EXPECT_GE(res.rounds_committed, 3u) << "seed " << seed;
  }
}

TEST(ChaosSoak, SoakStaysLiveUnderBitFlips) {
  // Bit flips can silently damage float payloads (no checksum), so
  // exactness is not promised — but every round still terminates and
  // the system keeps committing.
  for (std::uint64_t seed : {1u, 6u}) {
    ChaosSoakConfig cfg = fast_soak_config(seed);
    cfg.net.faults.corrupt_prob = 0.03;
    const ChaosSoakResult res = run_chaos_soak(cfg);
    EXPECT_TRUE(res.liveness_ok) << "seed " << seed;
    EXPECT_GE(res.rounds_committed, 3u) << "seed " << seed;
  }
}

TEST(ChaosSoak, CorruptionSoakIsByteIdenticalForSameSeed) {
  ChaosSoakConfig cfg = fast_soak_config(14);
  cfg.rounds = 5;
  cfg.net.faults.corrupt_prob = 0.05;
  cfg.net.faults.truncate_prob = 0.03;
  cfg.capture_trace = true;
  const ChaosSoakResult a = run_chaos_soak(cfg);
  const ChaosSoakResult b = run_chaos_soak(cfg);
  EXPECT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(ChaosSoak, PartitionDegradesThenHeals) {
  ChaosSoakConfig cfg;
  cfg.peers = 12;
  cfg.groups = 3;
  cfg.rounds = 8;
  cfg.seed = 4;
  cfg.round_interval = 1 * kSecond;
  cfg.partition_at = 2 * kSecond + 100 * kMillisecond;
  cfg.heal_at = 4 * kSecond + 100 * kMillisecond;
  const ChaosSoakResult res = run_chaos_soak(cfg);
  EXPECT_TRUE(res.liveness_ok);
  EXPECT_TRUE(res.all_commits_exact);
  // During the window the FedAvg leader only reaches its own island, so
  // committed rounds shrink to its subgroup; after healing, full
  // participation returns.
  bool shrunk = false;
  for (const RoundOutcome& o : res.outcomes) {
    if (o.committed && o.contributors < cfg.peers) shrunk = true;
  }
  EXPECT_TRUE(shrunk);
  ASSERT_FALSE(res.outcomes.empty());
  const RoundOutcome& last = res.outcomes.back();
  EXPECT_TRUE(last.committed);
  EXPECT_EQ(last.contributors, cfg.peers);
}

TEST(ChaosSoak, TraceStreamIsByteIdenticalForSameSeedAndPlan) {
  ChaosSoakConfig cfg = fast_soak_config(9);
  cfg.rounds = 5;
  cfg.partition_at = 1 * kSecond + 500 * kMillisecond;
  cfg.heal_at = 2 * kSecond + 500 * kMillisecond;
  cfg.capture_trace = true;
  const ChaosSoakResult a = run_chaos_soak(cfg);
  const ChaosSoakResult b = run_chaos_soak(cfg);
  EXPECT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.trace_json, b.trace_json);
  ChaosSoakConfig other = cfg;
  other.seed = 10;
  const ChaosSoakResult c = run_chaos_soak(other);
  EXPECT_NE(a.trace_json, c.trace_json);
}

}  // namespace
}  // namespace p2pfl::chaos
