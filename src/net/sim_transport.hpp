// Deterministic transport: the discrete-event simulator behind the seam.
//
// Frames ride in a slab-pooled record (recycled through an intrusive
// free list), the scheduled delivery closure captures only (this,
// slot) — small enough for std::function's inline storage — and the
// simulator's (time, insertion seq) order decides arrival. The Network
// computes each frame's whole delay before calling send_frame: its
// latency model (latency, jitter, per-link extras, the reorder draw)
// plus its link table's hold (stalls, egress serialization, FIFO
// floors). This transport adds nothing and schedules the delivery
// exactly that far ahead; the golden in tests/determinism_test.cpp
// pins the resulting event order byte-for-byte.
#pragma once

#include <cstdint>
#include <deque>

#include "net/transport.hpp"
#include "sim/simulator.hpp"

namespace p2pfl::net {

class SimTransport final : public Transport {
 public:
  explicit SimTransport(sim::Simulator& sim) : sim_(sim) {}

  SimTransport(const SimTransport&) = delete;
  SimTransport& operator=(const SimTransport&) = delete;

  bool deterministic() const override { return true; }
  SimTime now() const override { return sim_.now(); }

  TimerToken schedule_after(SimDuration delay,
                            std::function<void()> fn) override {
    // sim EventIds are nonzero (generations start at 1), so they are
    // valid TimerTokens as-is and cancel stays O(1).
    return sim_.schedule_after(delay, std::move(fn));
  }

  bool cancel(TimerToken token) override { return sim_.cancel(token); }

  /// Schedules the typed envelope's delivery; `frame` is empty (this
  /// transport frames nothing).
  void send_frame(Envelope&& env, SimDuration model_delay,
                  Bytes&& frame) override;

  void set_sink(FrameSink* sink) override { sink_ = sink; }

  void call(const std::function<void()>& fn) override { fn(); }
  bool run_until(const std::function<bool()>& done, SimDuration budget,
                 SimDuration poll) override;

  obs::Observability& obs() override { return sim_.obs(); }
  Rng& rng() override { return sim_.rng(); }
  sim::Simulator* simulator() override { return &sim_; }

  /// Pooled in-flight envelope records ever allocated (high-water of
  /// simultaneously in-flight messages). Records are recycled through
  /// an intrusive free list, so steady traffic allocates no new ones.
  std::size_t envelope_pool_slots() const { return env_pool_.size(); }

 private:
  /// In-flight messages ride in a pooled record instead of being copied
  /// into each delivery closure. `next_free` intrusively links free
  /// records.
  struct PooledEnvelope {
    Envelope env;
    std::uint32_t next_free = kNoEnvSlot;
  };
  static constexpr std::uint32_t kNoEnvSlot = 0xffffffffu;

  std::uint32_t acquire_envelope(Envelope&& env);
  void deliver_pooled(std::uint32_t slot);

  sim::Simulator& sim_;
  FrameSink* sink_ = nullptr;
  /// Deque so records stay address-stable while a delivery handler
  /// (which may send, acquiring fresh slots) holds a reference.
  std::deque<PooledEnvelope> env_pool_;
  std::uint32_t env_free_head_ = kNoEnvSlot;
};

}  // namespace p2pfl::net
