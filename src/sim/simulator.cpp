#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/check.hpp"

namespace p2pfl::sim {

Simulator::Simulator(std::uint64_t seed)
    : buckets_(kWheelBuckets), rng_(seed) {}

std::uint32_t Simulator::alloc_record(SimTime t, EventFn fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  Record& rec = pool_[slot];
  rec.fn = std::move(fn);
  rec.t = t;
  rec.seq = next_seq_++;
  ++live_count_;
  return slot;
}

void Simulator::free_record(std::uint32_t slot) {
  Record& rec = pool_[slot];
  rec.fn = nullptr;  // release captures eagerly; the slot may idle
  if (++rec.gen == 0) rec.gen = 1;  // keep (slot 0, gen 0) != kInvalidEvent
  --live_count_;
  free_slots_.push_back(slot);
}

void Simulator::push_near(const Entry& e) {
  near_.push_back(e);
  std::push_heap(near_.begin(), near_.end(), EntryAfter{});
}

Simulator::Entry Simulator::pop_near() {
  std::pop_heap(near_.begin(), near_.end(), EntryAfter{});
  Entry e = near_.back();
  near_.pop_back();
  return e;
}

void Simulator::insert_entry(const Entry& e) {
  const std::int64_t b = e.t >> kWheelBucketBits;
  if (b <= cursor_) {
    // Current (or, when run_until advanced the clock past the cursor,
    // an earlier) bucket: goes straight into the sorted near heap.
    push_near(e);
    return;
  }
  const std::int64_t ahead = b - cursor_;
  if (ahead < static_cast<std::int64_t>(kWheelBuckets)) {
    const std::size_t s = static_cast<std::size_t>(b) % kWheelBuckets;
    buckets_[s].push_back(e);
    occupied_[s / 64] |= std::uint64_t{1} << (s % 64);
    ++wheel_entry_count_;
    return;
  }
  far_.push_back(e);
  std::push_heap(far_.begin(), far_.end(), EntryAfter{});
}

std::int64_t Simulator::next_occupied_bucket() const {
  for (std::size_t step = 1; step < kWheelBuckets;) {
    const std::size_t s =
        (static_cast<std::size_t>(cursor_) + step) % kWheelBuckets;
    const std::size_t bit = s % 64;
    const std::uint64_t w = occupied_[s / 64] >> bit;
    const std::size_t span = std::min<std::size_t>(64 - bit, kWheelBuckets - step);
    if (w != 0) {
      const std::size_t tz = static_cast<std::size_t>(std::countr_zero(w));
      if (tz < span) return cursor_ + static_cast<std::int64_t>(step + tz);
    }
    step += span;
  }
  return -1;
}

void Simulator::flush_bucket(std::int64_t b) {
  // Only called with the near heap empty: the slot's storage becomes the
  // near heap, and the slot keeps none, so queue memory follows the
  // pending entries rather than each slot's largest burst.
  P2PFL_CHECK(near_.empty());
  const std::size_t s = static_cast<std::size_t>(b) % kWheelBuckets;
  near_ = std::exchange(buckets_[s], {});
  wheel_entry_count_ -= near_.size();
  const auto dead =
      std::remove_if(near_.begin(), near_.end(), [&](const Entry& e) {
        if (!alive(e)) return true;
        // A live entry left in a passed bucket slot is impossible: the
        // cursor only skips buckets the occupancy scan saw as empty.
        P2PFL_CHECK((e.t >> kWheelBucketBits) == b);
        return false;
      });
  stale_entries_ -= static_cast<std::size_t>(near_.end() - dead);
  near_.erase(dead, near_.end());
  std::make_heap(near_.begin(), near_.end(), EntryAfter{});
  occupied_[s / 64] &= ~(std::uint64_t{1} << (s % 64));
  cursor_ = b;
}

bool Simulator::advance_to_next() {
  for (;;) {
    while (!near_.empty() && !alive(near_.front())) {
      pop_near();
      --stale_entries_;
    }
    if (!near_.empty()) return true;
    // Re-home every far event the wheel horizon has reached, so a far
    // event can never be overtaken by a later wheel event once the
    // cursor has advanced toward it. Each entry is re-homed at most
    // once, so the amortized cost is O(1) per event. (Far events are
    // never earlier than near ones — near buckets are <= cursor_, far
    // buckets beyond the horizon — so re-homing can wait until the near
    // heap is empty.)
    while (!far_.empty()) {
      if (!alive(far_.front())) {
        std::pop_heap(far_.begin(), far_.end(), EntryAfter{});
        far_.pop_back();
        --stale_entries_;
        continue;
      }
      if ((far_.front().t >> kWheelBucketBits) - cursor_ >=
          static_cast<std::int64_t>(kWheelBuckets)) {
        break;
      }
      std::pop_heap(far_.begin(), far_.end(), EntryAfter{});
      const Entry e = far_.back();
      far_.pop_back();
      insert_entry(e);
    }
    // Re-homing may land entries in the current bucket (straight into
    // the near heap) — notably the event the cursor just jumped to.
    if (!near_.empty()) return true;
    const std::int64_t b = next_occupied_bucket();
    if (b >= 0) {
      flush_bucket(b);
      continue;
    }
    // Near and wheel drained entirely; jump the cursor to the earliest
    // far event (if any) and loop so the re-home pass picks it up.
    if (far_.empty()) return false;
    cursor_ = far_.front().t >> kWheelBucketBits;
  }
}

void Simulator::maybe_compact() {
  if (stale_entries_ <= kCompactSlack || stale_entries_ <= live_count_) {
    return;
  }
  auto prune = [&](std::vector<Entry>& v) {
    v.erase(std::remove_if(v.begin(), v.end(),
                           [&](const Entry& e) { return !alive(e); }),
            v.end());
  };
  prune(near_);
  std::make_heap(near_.begin(), near_.end(), EntryAfter{});
  prune(far_);
  std::make_heap(far_.begin(), far_.end(), EntryAfter{});
  wheel_entry_count_ = 0;
  for (std::size_t s = 0; s < kWheelBuckets; ++s) {
    std::vector<Entry>& vec = buckets_[s];
    if (vec.empty()) continue;
    prune(vec);
    wheel_entry_count_ += vec.size();
    if (vec.empty()) {
      occupied_[s / 64] &= ~(std::uint64_t{1} << (s % 64));
      vec = std::vector<Entry>();  // an idle slot keeps no storage
    }
  }
  stale_entries_ = 0;
}

EventId Simulator::schedule_at(SimTime t, EventFn fn) {
  P2PFL_CHECK_MSG(t >= now_, "cannot schedule events in the past");
  const std::uint32_t slot = alloc_record(t, std::move(fn));
  const Record& rec = pool_[slot];
  insert_entry(Entry{t, rec.seq, slot, rec.gen});
  return (static_cast<EventId>(slot) << 32) | rec.gen;
}

EventId Simulator::schedule_after(SimDuration delay, EventFn fn) {
  P2PFL_CHECK(delay >= 0);
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulator::cancel(EventId id) {
  const std::uint32_t slot = slot_of(id);
  const std::uint32_t gen = static_cast<std::uint32_t>(id);
  if (id == kInvalidEvent || slot >= pool_.size() || pool_[slot].gen != gen) {
    // Invalid, already fired, already cancelled, or a stale id whose
    // slot was recycled — the generation mismatch protects the new
    // occupant in every case.
    return false;
  }
  free_record(slot);
  ++stale_entries_;  // the queue entry is swept lazily
  maybe_compact();
  return true;
}

bool Simulator::pop_and_run() {
  if (!advance_to_next()) return false;
  const Entry e = pop_near();
  P2PFL_CHECK(e.t >= now_);
  now_ = e.t;
  EventFn fn = std::move(pool_[e.slot].fn);
  free_record(e.slot);
  dispatch_counter_.add(1);
  fn();
  return true;
}

bool Simulator::step() { return pop_and_run(); }

std::size_t Simulator::run() {
  stopped_ = false;
  std::size_t n = 0;
  while (!stopped_ && pop_and_run()) ++n;
  return n;
}

std::size_t Simulator::run_until(SimTime t) {
  P2PFL_CHECK(t >= now_);
  stopped_ = false;
  std::size_t n = 0;
  while (!stopped_) {
    if (!advance_to_next() || near_.front().t > t) break;
    if (pop_and_run()) ++n;
  }
  if (!stopped_ && now_ < t) now_ = t;
  return n;
}

}  // namespace p2pfl::sim
