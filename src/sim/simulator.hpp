// Deterministic discrete-event simulation kernel.
//
// The paper evaluates its two-layer Raft on one machine with many virtual
// peers talking TCP through a `tc netem` 15 ms delay. We reproduce that
// setup as a discrete-event simulation: every RPC delivery, timeout and
// crash is an event ordered by (time, insertion sequence). Identical
// seeds therefore give identical protocol histories, which makes the
// election-time distributions of Figs. 10-12 and every fault-injection
// test replayable.
//
// The kernel is built for 100k+ peer runs (bench/scale_sweep):
//  - Event records live in a slab pool with an index free list; an
//    EventId packs (slot, generation), so cancel() is an O(1) slot free
//    with no tombstone set and a stale id from a recycled slot can never
//    touch the new occupant.
//  - Scheduling uses a bucketed timer wheel (kWheelBucketBits-µs
//    buckets, kWheelBuckets of them ≈ a 4 s horizon) for the dominant
//    near-future class (link delays, election timeouts, heartbeats),
//    a small binary heap for the wheel's current bucket, and a fallback
//    heap for far-future events beyond the horizon. A bucket's storage
//    becomes the near heap when the cursor reaches it, and its slot
//    keeps none, so queue memory follows the pending entries.
//  - Firing order is exactly (time, insertion sequence) — the same total
//    order the original single priority queue produced — because the
//    wheel partitions events by time and the intra-bucket heap breaks
//    ties by sequence. tests/sim_wheel_oracle_test.cpp checks this
//    against a retained naive binary-heap reference across seeds, and
//    the golden in tests/determinism_test.cpp pins a full two-layer run
//    byte-for-byte to the pre-wheel kernel's output.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "obs/obs.hpp"

namespace p2pfl::sim {

/// Handle to a scheduled event; usable to cancel it before it fires.
/// Packs (pool slot << 32 | generation); generations start at 1, so the
/// invalid id 0 is never issued, and a slot reuse bumps the generation,
/// invalidating every previously issued id for that slot.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class Simulator {
 public:
  using EventFn = std::function<void()>;

  explicit Simulator(std::uint64_t seed);

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time (microseconds since simulation start).
  SimTime now() const { return now_; }

  /// Schedule fn to run at absolute simulated time t (>= now).
  EventId schedule_at(SimTime t, EventFn fn);

  /// Schedule fn to run after the given delay (>= 0).
  EventId schedule_after(SimDuration delay, EventFn fn);

  /// Cancel a pending event in O(1). Returns false if it already fired,
  /// was already cancelled, or the id is invalid/stale — a stale id can
  /// never cancel a newer event that recycled the same pool slot.
  bool cancel(EventId id);

  /// Run events until the queue drains or stop() is called.
  /// Returns the number of events executed.
  std::size_t run();

  /// Run events with timestamp <= t, then advance the clock to t.
  std::size_t run_until(SimTime t);

  /// Run events for the given additional duration.
  std::size_t run_for(SimDuration d) { return run_until(now_ + d); }

  /// Execute the single next event. Returns false if the queue is empty.
  bool step();

  /// Make run()/run_until() return after the current event completes.
  void stop() { stopped_ = true; }

  /// Number of live pending events — fired and cancelled events are
  /// excluded exactly (see tests/sim_test.cpp cancel-then-query cases).
  std::size_t pending() const { return live_count_; }

  /// Root deterministic random source; components should fork() children.
  Rng& rng() { return rng_; }

  /// Metrics registry + trace stream for this simulation. Owned here so
  /// every sample carries the virtual clock and runs stay seed-exact.
  obs::Observability& obs() { return obs_; }
  const obs::Observability& obs() const { return obs_; }

  // --- pool / queue introspection (tests + bench/scale_sweep) ----------
  /// Slab records ever allocated. Plateaus under schedule/cancel churn:
  /// freed slots are recycled through the free list.
  std::size_t pool_slot_count() const { return pool_.size(); }
  /// Entries currently sitting in the wheel, near heap and far heap,
  /// including not-yet-swept stale entries of cancelled events. Bounded
  /// by ~2x live + compaction slack (see kCompactSlack).
  std::size_t queued_entry_count() const {
    return near_.size() + far_.size() + wheel_entry_count_;
  }
  /// Pool slot an EventId refers to (tests assert recycling behavior).
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// Timer-wheel geometry, exposed so tests can target each class of
  /// delay (current bucket / wheel / far-future overflow heap).
  static constexpr int kWheelBucketBits = 12;  // 4096 µs ≈ 4 ms buckets
  static constexpr SimDuration kWheelBucketSpan = SimDuration{1}
                                                  << kWheelBucketBits;
  static constexpr std::size_t kWheelBuckets = 1024;  // horizon ≈ 4.2 s

 private:
  /// Pooled event record. `gen` is bumped when the slot is freed (fire
  /// or cancel), so outstanding EventIds referring to the old occupant
  /// stop matching.
  struct Record {
    EventFn fn;
    SimTime t = 0;
    std::uint64_t seq = 0;
    std::uint32_t gen = 1;
  };
  /// Queue entry: ordering key (t, seq) plus the (slot, gen) reference
  /// used to detect entries whose event was cancelled after insertion.
  struct Entry {
    SimTime t;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  /// Min-heap comparator on (t, seq): seq is unique, so this is a total
  /// order and heap pop order is independent of internal layout.
  struct EntryAfter {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.t != b.t ? a.t > b.t : a.seq > b.seq;
    }
  };
  /// Cancelled-entry slack tolerated before a global sweep rebuilds the
  /// queues; keeps memory ~2x live under adversarial churn while making
  /// the amortized sweep cost O(1) per cancel.
  static constexpr std::size_t kCompactSlack = 1024;

  bool alive(const Entry& e) const {
    return e.slot < pool_.size() && pool_[e.slot].gen == e.gen;
  }
  std::uint32_t alloc_record(SimTime t, EventFn fn);
  void free_record(std::uint32_t slot);
  void insert_entry(const Entry& e);
  void push_near(const Entry& e);
  Entry pop_near();
  /// Move the wheel cursor forward until near_.top() is the globally
  /// earliest live event (flushing buckets / re-homing far events as
  /// needed). Returns false when no live event remains.
  bool advance_to_next();
  std::int64_t next_occupied_bucket() const;
  void flush_bucket(std::int64_t b);
  void maybe_compact();
  bool pop_and_run();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 1;
  bool stopped_ = false;

  std::vector<Record> pool_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_count_ = 0;
  std::size_t stale_entries_ = 0;

  /// Events in bucket cursor_ or earlier (min-heap by (t, seq)).
  std::vector<Entry> near_;
  /// Wheel: bucket b (absolute index t >> kWheelBucketBits) lives in
  /// buckets_[b % kWheelBuckets] while 0 < b - cursor_ < kWheelBuckets;
  /// an empty slot holds no storage.
  std::vector<std::vector<Entry>> buckets_;
  std::array<std::uint64_t, kWheelBuckets / 64> occupied_{};
  std::size_t wheel_entry_count_ = 0;
  /// Absolute index of the bucket the near heap covers. Only ever moves
  /// forward, and only after the bucket it lands on has been flushed.
  std::int64_t cursor_ = 0;
  /// Events at or beyond the wheel horizon (min-heap by (t, seq)).
  std::vector<Entry> far_;

  Rng rng_;
  obs::Observability obs_{&now_};
  obs::Counter& dispatch_counter_{obs_.metrics.counter("sim.events_dispatched")};
};

}  // namespace p2pfl::sim
