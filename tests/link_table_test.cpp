// Tier-1 tests for net::LinkTable: the stalls, throttles, egress
// serializer and FIFO release floors both transports consult at the
// frame boundary, plus the ChaosEngine plan events that drive them.
// The suites keep their historical names (FaultInjector,
// FaultInjectorSim) so test ids stay stable.
//
// The central properties: the table is pure deterministic state (no
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
#include "net/link_table.hpp"
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
  LinkTable fi(obs, 0);
  EXPECT_FALSE(fi.active());
  EXPECT_EQ(fi.frame_delay(0, 1, 4096, 1000), 0);
  EXPECT_EQ(fi.writable_at(0, 1, 1000), 1000);
  // Nothing installed: no chaos.transport.* counter exists yet.
  EXPECT_EQ(obs::metrics_jsonl(obs.metrics).find("chaos.transport."),
            std::string::npos);
}

TEST(FaultInjector, StallHoldsOneDirectionUntilWindowEnds) {
  SimTime clock = 0;
  obs::Observability obs(&clock);
  LinkTable fi(obs, 0);
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
  LinkTable fi(obs, 0);
  fi.stall_pair(3, 7, 5000);
  EXPECT_EQ(fi.frame_delay(3, 7, 10, 0), 5000);
  EXPECT_EQ(fi.frame_delay(7, 3, 10, 0), 5000);
  // Third parties are untouched.
  EXPECT_EQ(fi.frame_delay(3, 4, 10, 0), 0);
}

TEST(FaultInjector, ThrottleSerializesEgress) {
  SimTime clock = 0;
  obs::Observability obs(&clock);
  LinkTable fi(obs, 0);
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
  LinkTable fi(obs, 0);
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
  LinkTable fi(obs, 0);
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
  LinkTable fi(obs, 0);
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
  net.links().stall_link(0, 1, 500 * kMillisecond);
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
  EXPECT_FALSE(net.links().active());
}

// --- exact arrival times -------------------------------------------------

/// One frame of an arrival-time scenario: sent at `at` from `from` to
/// `to`, charged `bytes`.
struct TimedSend {
  SimTime at;
  PeerId from;
  PeerId to;
  std::uint64_t bytes;
};

/// Runs `sends` (frame i carries body i) on a fresh four-peer network
/// with 5 ms links, an egress cap of `egress_bytes_per_sec` and the
/// transport faults of `plan`; with `clear_at` >= 0 the link table is
/// healed at that time. Returns each frame's arrival time.
std::vector<SimTime> arrivals(std::uint64_t egress_bytes_per_sec,
                              const chaos::ChaosPlan& plan,
                              const std::vector<TimedSend>& sends,
                              SimTime clear_at = -1) {
  sim::Simulator sim(5);
  Network net(sim, {.base_latency = 5 * kMillisecond,
                    .egress_bytes_per_sec = egress_bytes_per_sec});
  TimedRecorder r(sim);
  for (PeerId p = 0; p < 4; ++p) net.attach(p, &r);
  chaos::ChaosEngine engine(net, plan);
  engine.start();
  for (std::size_t i = 0; i < sends.size(); ++i) {
    const TimedSend s = sends[i];
    sim.schedule_at(s.at, [&net, s, i] {
      net.send(s.from, s.to, "msg", static_cast<int>(i), s.bytes);
    });
  }
  if (clear_at >= 0) {
    sim.schedule_at(clear_at, [&] { net.links().clear(sim.now()); });
  }
  sim.run();
  std::vector<SimTime> out;
  for (std::size_t i = 0; i < sends.size(); ++i) {
    out.push_back(r.arrived.at(static_cast<int>(i)));
  }
  return out;
}

// Pins the exact arrival time of every frame under each shaping a
// production path or test uses on its own: a one-way stall, a stall
// pair, the simulator's conn-reset outage, a throttle window, a heal in
// the middle of a stall (the FIFO floor) and an egress cap.
TEST(FaultInjectorSim, ExactArrivalTimesPerShaping) {
  constexpr SimDuration ms = kMillisecond;
  using Times = std::vector<SimTime>;

  chaos::ChaosPlan one_way;  // 0->1 stalled during [10, 110) ms
  one_way.stall_window(10 * ms, 110 * ms, 0, 1);
  EXPECT_EQ(arrivals(0, one_way,
                     {{20 * ms, 0, 1, 100},
                      {20 * ms, 1, 0, 100},
                      {30 * ms, 0, 1, 100},
                      {120 * ms, 0, 1, 100}}),
            (Times{115 * ms, 25 * ms, 115 * ms, 125 * ms}));

  chaos::ChaosPlan pair;  // 0<->1 stalled during [10, 110) ms
  pair.stall_window(10 * ms, 110 * ms, 0, 1, /*bidirectional=*/true);
  EXPECT_EQ(arrivals(0, pair,
                     {{20 * ms, 0, 1, 100},
                      {30 * ms, 1, 0, 100},
                      {20 * ms, 0, 2, 100}}),
            (Times{115 * ms, 115 * ms, 25 * ms}));

  chaos::ChaosPlan reset;  // the simulator's 200 ms outage from 50 ms
  reset.conn_reset_at(50 * ms, 0, 1, /*sim_outage=*/200 * ms);
  EXPECT_EQ(arrivals(0, reset,
                     {{60 * ms, 0, 1, 100},
                      {100 * ms, 1, 0, 100},
                      {60 * ms, 0, 2, 100},
                      {260 * ms, 0, 1, 100}}),
            (Times{255 * ms, 255 * ms, 65 * ms, 265 * ms}));

  chaos::ChaosPlan throttle;  // peer 2 at 3 MB/s during [0, 1) s
  throttle.throttle_window(0, kSecond, 2, 3'000'000);
  // 250 kB take 83'333 us (floored), then 100 kB queue for 33'333 us.
  EXPECT_EQ(arrivals(0, throttle,
                     {{10 * ms, 2, 3, 250'000},
                      {10 * ms, 2, 0, 100'000},
                      {10 * ms, 3, 2, 100'000}}),
            (Times{98'333, 131'666, 15 * ms}));

  // Healed at 50 ms, mid-stall: a later 0->1 frame still waits for the
  // one held until 110 ms; other links are free at once.
  EXPECT_EQ(arrivals(0, one_way,
                     {{20 * ms, 0, 1, 100},
                      {60 * ms, 0, 1, 100},
                      {60 * ms, 0, 2, 100},
                      {120 * ms, 0, 1, 100}},
                     /*clear_at=*/50 * ms),
            (Times{115 * ms, 115 * ms, 65 * ms, 125 * ms}));

  // A 1 MB/s egress cap: each sender's frames queue behind its own
  // earlier ones, never behind another sender's.
  EXPECT_EQ(arrivals(1'000'000, chaos::ChaosPlan{},
                     {{0, 0, 1, 100'000},
                      {0, 0, 2, 50'000},
                      {0, 1, 2, 30'000},
                      {10 * ms, 1, 0, 30'000},
                      {200 * ms, 0, 1, 10'000}}),
            (Times{105 * ms, 155 * ms, 35 * ms, 65 * ms, 215 * ms}));
}

}  // namespace
}  // namespace p2pfl::net
