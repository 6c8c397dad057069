// Tier-1 tests for the transport-fault injector: the backend-agnostic
// stall/throttle state both transports consult at the frame boundary,
// plus the ChaosEngine plan events that drive it.
//
// The central properties: the injector is pure deterministic state (no
// RNG draws), holds are applied per directed link with FIFO delivery
// preserved across healing, and the same plan events execute on the
// simulator by stretching modeled delays — so a transport-fault plan is
// as replayable as any other ChaosPlan.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "chaos/engine.hpp"
#include "chaos/plan.hpp"
#include "net/fault_injector.hpp"
#include "net/network.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"

namespace p2pfl::net {
namespace {

std::uint64_t counter_value(sim::Simulator& sim, const std::string& name) {
  return sim.obs().metrics.counter_value(name);
}

TEST(FaultInjector, NoWindowsMeansNoDelay) {
  SimTime clock = 0;
  obs::Observability obs(&clock);
  FaultInjector fi(obs);
  EXPECT_FALSE(fi.active());
  EXPECT_EQ(fi.frame_delay(0, 1, 4096, 1000), 0);
  EXPECT_EQ(fi.writable_at(0, 1, 1000), 1000);
  EXPECT_EQ(obs.metrics.counter_value("chaos.transport.stalled_frames"), 0u);
}

TEST(FaultInjector, StallHoldsOneDirectionUntilWindowEnds) {
  SimTime clock = 0;
  obs::Observability obs(&clock);
  FaultInjector fi(obs);
  fi.stall_link(0, 1, 1000);
  EXPECT_TRUE(fi.active());
  // Held direction: release at the window end.
  EXPECT_EQ(fi.frame_delay(0, 1, 100, 200), 800);
  // Reverse direction is free.
  EXPECT_EQ(fi.frame_delay(1, 0, 100, 200), 0);
  // After expiry the hold is gone (and lazily erased).
  EXPECT_EQ(fi.frame_delay(0, 1, 100, 1000), 0);
  EXPECT_EQ(obs.metrics.counter_value("chaos.transport.stall_windows"), 1u);
  EXPECT_EQ(obs.metrics.counter_value("chaos.transport.stalled_frames"), 1u);
}

TEST(FaultInjector, StallPairHoldsBothDirections) {
  SimTime clock = 0;
  obs::Observability obs(&clock);
  FaultInjector fi(obs);
  fi.stall_pair(3, 7, 5000);
  EXPECT_EQ(fi.frame_delay(3, 7, 10, 0), 5000);
  EXPECT_EQ(fi.frame_delay(7, 3, 10, 0), 5000);
  // Third parties are untouched.
  EXPECT_EQ(fi.frame_delay(3, 4, 10, 0), 0);
}

TEST(FaultInjector, ThrottleSerializesEgress) {
  SimTime clock = 0;
  obs::Observability obs(&clock);
  FaultInjector fi(obs);
  // 1 MB/s: a 250 kB frame takes 250 ms on the wire.
  fi.throttle_peer(0, 1'000'000, 10 * kSecond);
  EXPECT_EQ(fi.frame_delay(0, 1, 250'000, 0), 250 * kMillisecond);
  // Egress is per-sender: the next frame (even to another peer) queues
  // behind the first.
  EXPECT_EQ(fi.frame_delay(0, 2, 250'000, 0), 500 * kMillisecond);
  // Other senders are unaffected.
  EXPECT_EQ(fi.frame_delay(1, 0, 250'000, 0), 0);
  EXPECT_EQ(obs.metrics.counter_value("chaos.transport.throttled_frames"),
            2u);
}

TEST(FaultInjector, FifoFloorPreventsOvertakeAcrossClear) {
  SimTime clock = 0;
  obs::Observability obs(&clock);
  FaultInjector fi(obs);
  fi.stall_link(0, 1, 1000);
  EXPECT_EQ(fi.frame_delay(0, 1, 10, 0), 1000);  // held until 1000
  // Heal mid-window: the stall is gone, but a frame sent now must not
  // overtake the one still being held on the same directed link.
  fi.clear(500);
  EXPECT_FALSE(fi.active());
  EXPECT_EQ(fi.frame_delay(0, 1, 10, 500), 500);  // still releases at 1000
  // Unrelated links carry no floor.
  EXPECT_EQ(fi.frame_delay(2, 3, 10, 500), 0);
  // Once past the floor, the link is fully free again.
  EXPECT_EQ(fi.frame_delay(0, 1, 10, 1200), 0);
}

TEST(FaultInjector, TcpPathGatesWritesAndChargesActualBytes) {
  SimTime clock = 0;
  obs::Observability obs(&clock);
  FaultInjector fi(obs);
  fi.stall_link(0, 1, 2000);
  EXPECT_EQ(fi.writable_at(0, 1, 100), 2000);
  EXPECT_EQ(fi.writable_at(1, 0, 100), 100);

  fi.throttle_peer(5, 1000, kSecond * 100);
  // Nothing written yet: the first write may start immediately...
  EXPECT_EQ(fi.writable_at(5, 6, 0), 0);
  // ...then 1000 bytes at 1000 B/s keep the egress busy for 1 s.
  fi.note_written(5, 1000, 0);
  EXPECT_EQ(fi.writable_at(5, 6, 1), kSecond);
}

TEST(FaultInjector, MetricsDumpParity) {
  SimTime clock = 0;
  obs::Observability obs(&clock);
  FaultInjector fi(obs);
  fi.stall_link(0, 1, 10);
  fi.throttle_peer(0, 100, 10);
  const std::string jsonl = obs::metrics_jsonl(obs.metrics);
  EXPECT_NE(jsonl.find("chaos.transport.stall_windows"), std::string::npos);
  EXPECT_NE(jsonl.find("chaos.transport.throttle_windows"),
            std::string::npos);
  EXPECT_NE(jsonl.find("chaos.transport.stalled_frames"), std::string::npos);
  EXPECT_NE(jsonl.find("chaos.transport.throttled_frames"),
            std::string::npos);
  EXPECT_EQ(obs.metrics.counter_value("chaos.transport.stall_windows"), 1u);
  EXPECT_EQ(obs.metrics.counter_value("chaos.transport.throttle_windows"),
            1u);
}

// --- sim-path integration ----------------------------------------------

/// Endpoint recording each payload's arrival (virtual) time.
struct TimedRecorder : Endpoint {
  explicit TimedRecorder(sim::Simulator& sim) : sim(sim) {}
  sim::Simulator& sim;
  std::map<int, SimTime> arrived;
  void deliver(const Envelope& env) override {
    arrived[std::any_cast<int>(env.body)] = sim.now();
  }
};

TEST(FaultInjectorSim, StallWindowStretchesModeledDelay) {
  sim::Simulator sim(7);
  Network net(sim, {.base_latency = kMillisecond});
  TimedRecorder r(sim);
  net.attach(0, &r);
  net.attach(1, &r);
  SimTime clock = 0;
  obs::Observability obs(&clock);
  FaultInjector fi(obs);
  net.transport().set_fault_injector(&fi);
  fi.stall_link(0, 1, 500 * kMillisecond);
  net.send(0, 1, "msg", 1, 100);  // held
  net.send(1, 0, "msg", 2, 100);  // free direction
  sim.run();
  ASSERT_EQ(r.arrived.size(), 2u);
  EXPECT_GE(r.arrived[1], 500 * kMillisecond);
  EXPECT_LT(r.arrived[2], 100 * kMillisecond);
}

TEST(FaultInjectorSim, EngineExecutesTransportFaultPlan) {
  sim::Simulator sim(21);
  Network net(sim, {.base_latency = kMillisecond});
  TimedRecorder r(sim);
  for (PeerId p = 0; p < 6; ++p) net.attach(p, &r);

  chaos::ChaosPlan plan;
  plan.conn_reset_at(100 * kMillisecond, 0, 1,
                     /*sim_outage=*/200 * kMillisecond);
  plan.stall_window(50 * kMillisecond, 150 * kMillisecond, 2, 3);
  plan.throttle_window(0, kSecond, 4, /*bytes_per_sec=*/1'000'000);
  chaos::ChaosEngine engine(net, plan);
  engine.start();

  // Victim of the reset, sent while the modeled outage holds the pair.
  sim.schedule_at(120 * kMillisecond,
                  [&] { net.send(0, 1, "msg", 1, 100); });
  // Victim of the one-way stall.
  sim.schedule_at(60 * kMillisecond,
                  [&] { net.send(2, 3, "msg", 2, 100); });
  // Throttled bulk sender: 500 kB at 1 MB/s ≈ 500 ms of wire time.
  sim.schedule_at(10 * kMillisecond,
                  [&] { net.send(4, 5, "msg", 3, 500'000); });
  // Control: untouched link, arrives at base latency.
  sim.schedule_at(10 * kMillisecond,
                  [&] { net.send(5, 2, "msg", 4, 100); });
  sim.run();

  ASSERT_EQ(r.arrived.size(), 4u);
  EXPECT_GE(r.arrived[1], 300 * kMillisecond);  // held until reset clears
  EXPECT_GE(r.arrived[2], 150 * kMillisecond);  // held until window ends
  EXPECT_GE(r.arrived[3], 500 * kMillisecond);  // serialized at 1 MB/s
  EXPECT_LT(r.arrived[4], 20 * kMillisecond);

  EXPECT_EQ(counter_value(sim, "chaos.transport.conn_reset"), 1u);
  EXPECT_EQ(counter_value(sim, "chaos.transport.stall"), 1u);
  EXPECT_EQ(counter_value(sim, "chaos.transport.throttle"), 1u);
  // One explicit one-way window + the reset's modeled per-direction pair.
  EXPECT_EQ(counter_value(sim, "chaos.transport.stall_windows"), 3u);
  EXPECT_EQ(engine.faults_injected(), 3u);
}

TEST(FaultInjectorSim, ReconnectStormResetsPeriodically) {
  sim::Simulator sim(3);
  Network net(sim, {.base_latency = kMillisecond});
  TimedRecorder r(sim);
  net.attach(0, &r);
  net.attach(1, &r);

  chaos::ReconnectStormEvent storm;
  storm.at = 0;
  storm.until = 500 * kMillisecond;
  storm.period = 100 * kMillisecond;
  storm.pairs = {0, 1};
  chaos::ChaosPlan plan;
  plan.reconnect_storm(storm);
  chaos::ChaosEngine engine(net, plan);
  engine.start();
  sim.run();

  // Ticks at 0,100,...,400 ms; the 500 ms tick sees `until` and stops.
  EXPECT_EQ(counter_value(sim, "chaos.transport.conn_reset"), 5u);
  // Each sim-path reset models the outage as one stall per direction.
  EXPECT_EQ(counter_value(sim, "chaos.transport.stall_windows"), 10u);
}

TEST(FaultInjectorSim, EngineUninstallsItsInjectorWhenDestroyed) {
  sim::Simulator sim(3);
  Network net(sim, {.base_latency = kMillisecond});
  TimedRecorder r(sim);
  net.attach(0, &r);
  net.attach(1, &r);
  {
    chaos::ChaosPlan plan;
    plan.stall_window(0, 100 * kMillisecond, 0, 1);
    chaos::ChaosEngine engine(net, plan);
    engine.start();
    sim.run();
    EXPECT_NE(net.transport().fault_injector(), nullptr);
  }
  // The transport outlives the engine: no pointer to the freed injector
  // stays behind, and the next frame goes through untouched.
  ASSERT_EQ(net.transport().fault_injector(), nullptr);
  net.send(0, 1, "msg", 1, 100);
  sim.run();
  ASSERT_EQ(r.arrived.size(), 1u);
  EXPECT_EQ(r.arrived[1], sim.now());
}

TEST(FaultInjectorSim, PlanWithoutTransportFaultsRegistersNoCounters) {
  sim::Simulator sim(3);
  Network net(sim, {.base_latency = kMillisecond});
  chaos::ChaosPlan plan;
  plan.crash_at(kSecond, 0);
  chaos::ChaosEngine engine(net, plan);
  engine.start();
  sim.run();
  // Legacy plans must not grow the metric registry (golden dumps).
  const std::string jsonl = obs::metrics_jsonl(sim.obs().metrics);
  EXPECT_EQ(jsonl.find("chaos.transport."), std::string::npos);
  EXPECT_EQ(net.transport().fault_injector(), nullptr);
}

}  // namespace
}  // namespace p2pfl::net
