// Slab-pool / generation-tag stress for the simulator kernel: churns
// over a million schedule/cancel cycles (the Raft timer-reset pattern at
// scale) and asserts that
//  - a stale EventId whose pool slot was recycled can never cancel or
//    double-fire the slot's new occupant (generation tags),
//  - every non-cancelled event fires exactly once,
//  - pool and queue memory plateau instead of growing with churn
//    (free-list recycling + lazy stale-entry compaction),
//  - heap in use follows the pending events, not the largest burst each
//    wheel slot ever took (skipped under sanitizers).
// Runs in the fast tier-1 suite, so CI also executes it under ASan/UBSan
// where a use-after-free in the recycling path would be caught directly.
#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdint>

#include "sim/simulator.hpp"

namespace p2pfl::sim {
namespace {

TEST(SimPoolStress, StaleIdsNeverTouchRecycledSlots) {
  Simulator sim(7);
  constexpr std::uint64_t kCycles = 1'200'000;
  std::uint64_t fires = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t slot_reuses = 0;

  for (std::uint64_t i = 0; i < kCycles; ++i) {
    const SimDuration delay = static_cast<SimDuration>((i * 97) % 4096);
    const EventId id = sim.schedule_after(delay, [&] { ++fires; });
    ++scheduled;
    if (i % 2 == 0) {
      // Cancel immediately (timer re-arm): the slot is freed and must be
      // recyclable without the stale id reaching the next occupant.
      ASSERT_TRUE(sim.cancel(id));
      ASSERT_FALSE(sim.cancel(id));  // double-cancel is reported
      ++cancelled;
      const EventId fresh = sim.schedule_after(delay, [&] { ++fires; });
      ++scheduled;
      if (Simulator::slot_of(fresh) == Simulator::slot_of(id)) ++slot_reuses;
      // The stale id aliases the recycled slot but carries the old
      // generation: it must neither cancel nor otherwise disturb the
      // new occupant.
      ASSERT_FALSE(sim.cancel(id));
    }
    if (i % 64 == 63) {
      // Rotate the wheel so slots churn across buckets, not just one.
      sim.run_for(2 * 4096);
    }
  }
  sim.run();

  // Exactly-once firing: any stale-id cancellation leaking through, or
  // any double fire from a recycled slot, breaks this equality.
  EXPECT_EQ(fires, scheduled - cancelled);
  EXPECT_EQ(sim.pending(), 0u);
  // The free list was genuinely exercised (LIFO reuse makes the freshly
  // freed slot the next allocation in the common case).
  EXPECT_GT(slot_reuses, kCycles / 4);
  // Memory plateaus: ~10^6 churn cycles must not grow the slab past the
  // live high-water (~100 events between drains) plus free-list slack,
  // nor leave more queue entries than live + compaction slack.
  EXPECT_LE(sim.pool_slot_count(), 1024u);
  EXPECT_LE(sim.queued_entry_count(), 4096u);
}

TEST(SimPoolStress, FiredIdsAreNotCancellableAndDoNotAliasSuccessors) {
  Simulator sim(11);
  // Fire an event, let its slot be recycled, and verify the fired id is
  // dead forever while the successor behaves normally.
  bool first = false;
  const EventId a = sim.schedule_after(10, [&] { first = true; });
  sim.run();
  ASSERT_TRUE(first);
  EXPECT_FALSE(sim.cancel(a));  // already fired

  bool second = false;
  const EventId b = sim.schedule_after(10, [&] { second = true; });
  // LIFO free list: the successor reuses the fired event's slot with a
  // bumped generation.
  EXPECT_EQ(Simulator::slot_of(a), Simulator::slot_of(b));
  EXPECT_NE(a, b);
  EXPECT_FALSE(sim.cancel(a));  // stale id, recycled slot: still inert
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_TRUE(second);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// Bytes malloc has handed out, from the heap and from mmap.
std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

TEST(SimPoolStress, QueueMemoryFollowsPendingEvents) {
  if (kSanitized) {
    GTEST_SKIP() << "mallinfo2 does not see a sanitizer's allocator";
  }
  // 200 bursts of 20k events, 100 ms apart: each lands in its own wheel
  // slot ((t >> 12) % 1024 differs for all 200) and runs out before the
  // next is scheduled. Heap in use after the last burst must stay where
  // the first left it; a slot that kept its burst's storage would hold
  // about 0.8 MB each, 150 MB in all.
  constexpr int kBursts = 200;
  constexpr int kBurst = 20'000;
  Simulator sim(13);
  std::uint64_t fires = 0;
  std::size_t after_first = 0;
  for (int b = 0; b < kBursts; ++b) {
    for (int i = 0; i < kBurst; ++i) {
      sim.schedule_after(100 * kMillisecond, [&fires] { ++fires; });
    }
    sim.run();
    if (b == 0) after_first = heap_in_use();
  }
  EXPECT_EQ(fires, std::uint64_t{kBursts} * kBurst);
  EXPECT_EQ(sim.queued_entry_count(), 0u);
  EXPECT_LE(heap_in_use(), after_first + (std::size_t{4} << 20))
      << "after the first burst: " << after_first << " bytes";
}

}  // namespace
}  // namespace p2pfl::sim
