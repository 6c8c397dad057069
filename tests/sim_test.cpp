#include <gtest/gtest.h>

#include "net/sim_transport.hpp"
#include "sim/simulator.hpp"

namespace p2pfl::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim(1);
  std::vector<int> order;
  sim.schedule_after(30, [&] { order.push_back(3); });
  sim.schedule_after(10, [&] { order.push_back(1); });
  sim.schedule_after(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(Simulator, FifoAmongSimultaneousEvents) {
  Simulator sim(1);
  std::vector<int> order;
  sim.schedule_after(5, [&] { order.push_back(1); });
  sim.schedule_after(5, [&] { order.push_back(2); });
  sim.schedule_after(5, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim(1);
  bool fired = false;
  const EventId id = sim.schedule_after(10, [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // double-cancel is reported
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator sim(1);
  int count = 0;
  sim.schedule_after(1, [&] {
    ++count;
    sim.schedule_after(1, [&] { ++count; });
  });
  sim.run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.now(), 2);
}

TEST(Simulator, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulator sim(1);
  std::vector<SimTime> fired;
  for (SimTime t = 10; t <= 50; t += 10) {
    sim.schedule_at(t, [&, t] { fired.push_back(t); });
  }
  sim.run_until(30);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20, 30}));
  EXPECT_EQ(sim.now(), 30);
  sim.run_until(100);
  EXPECT_EQ(fired.size(), 5u);
  EXPECT_EQ(sim.now(), 100);  // clock advances even past the last event
}

TEST(Simulator, StopBreaksRun) {
  Simulator sim(1);
  int count = 0;
  sim.schedule_after(1, [&] {
    ++count;
    sim.stop();
  });
  sim.schedule_after(2, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim(1);
  sim.schedule_after(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), std::logic_error);
}

TEST(Simulator, PendingCountExcludesCancelled) {
  Simulator sim(1);
  const EventId a = sim.schedule_after(1, [] {});
  sim.schedule_after(2, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, PendingIsExactAcrossCancelAndFire) {
  // pending() counts live events only — cancel-then-query and
  // fire-then-query regression for the pooled kernel (the pre-refactor
  // doc claimed tombstones were included; the count is now exact by
  // construction).
  Simulator sim(1);
  const EventId a = sim.schedule_after(1, [] {});
  const EventId b = sim.schedule_after(2, [] {});
  sim.schedule_after(3, [] {});
  EXPECT_EQ(sim.pending(), 3u);
  EXPECT_TRUE(sim.cancel(b));
  EXPECT_EQ(sim.pending(), 2u);  // cancel-then-query: gone immediately
  EXPECT_FALSE(sim.cancel(b));
  EXPECT_EQ(sim.pending(), 2u);
  ASSERT_TRUE(sim.step());  // fires a
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_FALSE(sim.cancel(a));  // fired events are no longer cancellable
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, FiringOrderSpansAllWheelClasses) {
  // Events land in the near heap (current bucket), the wheel and the
  // far-future overflow heap; firing must still be globally ordered by
  // (time, insertion sequence).
  Simulator sim(1);
  std::vector<int> order;
  const SimDuration far = 8 * kSecond;  // beyond the ~4.2 s wheel horizon
  sim.schedule_after(far, [&] { order.push_back(6); });
  sim.schedule_after(3 * kSecond, [&] { order.push_back(5); });  // wheel
  sim.schedule_after(100, [&] { order.push_back(1); });  // current bucket
  sim.schedule_after(far + 1, [&] { order.push_back(7); });
  sim.schedule_after(15 * kMillisecond, [&] { order.push_back(2); });
  sim.schedule_after(50 * kMillisecond, [&] { order.push_back(3); });
  // Exact tie with a wheel event: insertion order breaks it.
  sim.schedule_after(3 * kSecond, [&] { order.push_back(8); });
  sim.run_until(3 * kSecond);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 5, 8}));
  // A late far-future event scheduled after time has advanced still
  // sorts against the older far events.
  sim.schedule_after(far, [&] { order.push_back(9); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 5, 8, 6, 7, 9}));
  EXPECT_EQ(sim.now(), 3 * kSecond + far);
}

TEST(Simulator, CursorJumpThenCancelStillReachesFarEvents) {
  // Regression (found by the wheel oracle): run_until makes the cursor
  // jump to the earliest far-future event's bucket and re-home it into
  // the near heap. If that event is then cancelled, stepping must still
  // re-home and fire the next far event — an early advance_to_next
  // returned "idle" when re-homing emptied the far heap.
  Simulator sim(1);
  bool a = false, b = false;
  const EventId id = sim.schedule_after(1'282'680'013, [&] { a = true; });
  sim.schedule_after(3'493'166'413, [&] { b = true; });
  sim.run_until(29 * kSecond);
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(a);
  EXPECT_TRUE(b);
  EXPECT_EQ(sim.now(), 3'493'166'413);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Timer, OneShotFiresOnce) {
  Simulator sim(1);
  net::SimTransport tr(sim);
  int fires = 0;
  net::Timer t(tr, [&] { ++fires; });
  t.arm(10);
  EXPECT_TRUE(t.armed());
  sim.run();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(t.armed());
}

TEST(Timer, RearmResetsDeadline) {
  Simulator sim(1);
  net::SimTransport tr(sim);
  std::vector<SimTime> fire_times;
  net::Timer t(tr, [&] { fire_times.push_back(sim.now()); });
  t.arm(10);
  sim.run_until(5);
  t.arm(10);  // reset: should now fire at 15, not 10
  sim.run();
  ASSERT_EQ(fire_times.size(), 1u);
  EXPECT_EQ(fire_times[0], 15);
}

TEST(Timer, PeriodicFiresRepeatedlyUntilCancelled) {
  Simulator sim(1);
  net::SimTransport tr(sim);
  int fires = 0;
  net::Timer t(tr, [&] { ++fires; });
  t.arm_periodic(10);
  sim.run_until(35);
  EXPECT_EQ(fires, 3);
  t.cancel();
  sim.run_until(100);
  EXPECT_EQ(fires, 3);
}

TEST(Timer, CallbackMayCancelPeriodic) {
  Simulator sim(1);
  net::SimTransport tr(sim);
  int fires = 0;
  net::Timer t(tr, [&] {
    ++fires;
    if (fires == 2) t.cancel();
  });
  t.arm_periodic(10);
  sim.run_until(200);
  EXPECT_EQ(fires, 2);
}

TEST(Timer, DestructionCancelsPendingEvent) {
  Simulator sim(1);
  net::SimTransport tr(sim);
  int fires = 0;
  {
    net::Timer t(tr, [&] { ++fires; });
    t.arm(10);
  }
  sim.run();
  EXPECT_EQ(fires, 0);
}

}  // namespace
}  // namespace p2pfl::sim
