// The transport seam: clock, timers and frame movement behind
// net::Network.
//
// net::Network is the protocol actors' façade — typed sends, fault
// injection, Eq. (4)/(5) byte accounting, the link table. Everything
// *mechanical* under it (what time it is, how a deferred callback
// fires, how a frame physically reaches the destination peer) lives
// behind this interface, with two implementations:
//
//  * net::SimTransport — the deterministic discrete-event path. The
//    clock is sim::Simulator's virtual clock, timers are simulator
//    events, and send_frame schedules an in-memory delivery of the
//    typed envelope after the delay the Network modeled (latency plus
//    the link table's hold). Goldens in tests/determinism_test.cpp pin
//    its event order.
//  * net::tcp::TcpTransport — a threaded epoll event loop speaking
//    length-prefixed frames of the canonical codec encodings over real
//    loopback sockets (src/net/tcp). The clock is CLOCK_MONOTONIC
//    microseconds since transport start; the modeled delay is ignored
//    because the kernel provides the latency, and writes are gated
//    through the sink's link table instead.
//
// The seam's contract:
//  * a send crosses it once, through send_frame, carrying the buffer
//    the Network's encode-verify wrote: the frame head's reserved room
//    and the verified encoding behind it, so the bytes a framing
//    transport sends are the bytes that were checked;
//  * every frame that crosses a non-deterministic transport must have a
//    registered codec (net::CodecRegistry) — only canonical encodings
//    travel; raw std::any bodies are a simulator-only test affordance;
//  * all protocol callbacks (frame delivery, timer fires, peer up/down)
//    are serialized onto one thread — the simulator's caller thread or
//    the TCP transport's event-loop thread — so actors never need locks;
//  * Transport::now() is monotone and every timer fires at-or-after its
//    deadline in that clock;
//  * code outside the callback thread touches actors and Network stats,
//    and sends, only through call(), and waits on them only through
//    run_until(), so one scenario runs unchanged on either backend.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/envelope.hpp"
#include "net/link_table.hpp"
#include "obs/obs.hpp"

namespace p2pfl::sim {
class Simulator;
}

namespace p2pfl::net {

/// Handle to a scheduled transport timer callback; 0 is never issued.
using TimerToken = std::uint64_t;
inline constexpr TimerToken kNoTimerToken = 0;

/// The upcall side of the seam, implemented by net::Network: the
/// transport hands arriving frames (and peer liveness transitions) back
/// through this interface, always on the transport's callback thread.
class FrameSink {
 public:
  virtual ~FrameSink() = default;

  /// A frame reached its destination peer. The sink owns delivered-side
  /// accounting and endpoint dispatch; `env.body` is already typed
  /// (decoded from the canonical encoding on real transports).
  virtual void transport_deliver(Envelope& env) = 0;

  /// A connection to `peer` became usable / was lost. Only real
  /// transports emit these; the simulator models liveness explicitly
  /// through crash()/restore() instead.
  virtual void transport_peer_up(PeerId peer) { (void)peer; }
  virtual void transport_peer_down(PeerId peer, const char* reason) {
    (void)peer;
    (void)reason;
  }

  /// The link table whose stalls, throttles and egress serializer gate
  /// the frames this sink sends. Real transports consult it before each
  /// write; on the simulator the sink folds it into `model_delay`.
  virtual LinkTable& links() = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// True when this transport is the deterministic simulator: time is
  /// virtual, latency/faults are modeled by the Network, and identical
  /// seeds replay identical histories. Real transports return false and
  /// make the Network skip its latency model (the wire provides it).
  virtual bool deterministic() const = 0;

  /// Current transport time in microseconds (virtual or monotonic).
  virtual SimTime now() const = 0;

  /// Run `fn` once after `delay` on the transport's callback thread.
  /// Returns a token usable to cancel before it fires.
  virtual TimerToken schedule_after(SimDuration delay,
                                    std::function<void()> fn) = 0;

  /// Cancel a pending timer. False if it already fired / was cancelled.
  virtual bool cancel(TimerToken token) = 0;

  /// Bytes this transport's frame puts in front of the payload of a
  /// message of `kind`; 0 for a transport that frames nothing (the
  /// simulator). Network::send encode-verifies a payload behind that
  /// many reserved bytes, so the encoder's bytes are the bytes the
  /// transport sends.
  virtual std::size_t frame_head_bytes(const std::string& kind) const {
    (void)kind;
    return 0;
  }

  /// Move one frame toward env.to. `model_delay` is the delivery delay
  /// the Network computed on a deterministic transport (its latency
  /// model plus the link table's hold), which that transport honors
  /// exactly. Real transports ignore it: the wire imposes the latency
  /// and the sink's link table gates their writes.
  ///
  /// `frame` is frame_head_bytes(env.kind) reserved bytes followed by
  /// env.body's canonical encoding, the bytes the Network's
  /// encode-verify produced and checked for this send; the transport
  /// keeps the buffer and writes its framing into the reserved room. It
  /// is empty when the transport frames nothing (the simulator, which
  /// moves the typed body) and when the send has no verified encoding: a
  /// kind without a codec (simulator only) or a chaos-corrupted body. A
  /// real transport sends these bytes and nothing else, and refuses an
  /// empty frame.
  virtual void send_frame(Envelope&& env, SimDuration model_delay,
                          Bytes&& frame) = 0;

  /// Register the upcall sink (the Network). One sink at a time.
  virtual void set_sink(FrameSink* sink) = 0;

  /// Metrics/trace/span bundle every component samples through. On the
  /// simulator this is the simulation-owned registry (virtual-time
  /// samples, byte-identical dumps); a real transport owns its own.
  virtual obs::Observability& obs() = 0;

  /// Root deterministic random source; components fork() children.
  virtual Rng& rng() = 0;

  /// The simulator behind a deterministic transport, nullptr otherwise.
  /// Simulation-only layers (chaos engine, benches) use this escape
  /// hatch; protocol actors must not.
  virtual sim::Simulator* simulator() { return nullptr; }

  /// Real transports: bring sockets/threads up, and tear them down
  /// flushing what can be flushed. No-ops on the simulator.
  virtual void start() {}
  virtual void shutdown() {}

  /// Run `fn` on the callback thread and wait for it to finish. The
  /// simulator runs it inline: its callback thread is the caller's.
  virtual void call(const std::function<void()>& fn) = 0;

  /// Evaluate `done` (on the callback thread) every `poll` of transport
  /// time until it holds or `budget` has passed; returns its last value.
  /// The simulator advances the virtual clock by `poll` per step; a real
  /// transport sleeps `poll` between checks. Call only from outside the
  /// callback thread.
  virtual bool run_until(const std::function<bool()>& done,
                         SimDuration budget, SimDuration poll) = 0;

  /// Forcibly reset any established connection between `a` and `b`
  /// (both directions), as if the kernel sent RST. Real transports tear
  /// the sockets down and go through their reconnect path; the
  /// deterministic simulator has no connections, so the chaos engine
  /// models the reset outage as a brief stall window instead.
  virtual void inject_connection_reset(PeerId a, PeerId b) {
    (void)a;
    (void)b;
  }
};

/// Resettable one-shot and periodic timer over the transport seam.
///
/// Raft election timeouts, heartbeat broadcasts, SAC phase timeouts and
/// the round driver all run on this, so the same actor code ticks on
/// virtual time under the simulator and on the monotonic clock under
/// TCP. Owns at most one pending transport timer and guarantees the
/// callback never fires after cancel()/destruction. Firings count as
/// "sim.timer_fires" and trace under category "sim" on both backends,
/// the identity the golden dumps pin.
class Timer {
 public:
  using Callback = std::function<void()>;

  /// `name` labels this timer's firings in the trace stream (category
  /// "sim"); unnamed timers trace as "timer".
  Timer(Transport& transport, Callback cb, std::string name = {});
  ~Timer();

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Arm (or re-arm) as a one-shot firing after `delay`.
  void arm(SimDuration delay);

  /// Arm (or re-arm) as a periodic timer with the given interval; the
  /// first firing happens one interval from now.
  void arm_periodic(SimDuration interval);

  /// Cancel any pending firing. Safe to call when idle.
  void cancel();

  bool armed() const { return token_ != kNoTimerToken; }

 private:
  void fire();

  Transport& transport_;
  Callback cb_;
  const std::string name_;
  obs::Counter& fire_counter_;
  TimerToken token_ = kNoTimerToken;
  SimDuration period_ = 0;  // 0 = one-shot
};

}  // namespace p2pfl::net
