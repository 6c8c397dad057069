// Threaded TCP backend of the net::Transport seam.
//
// One TcpTransport hosts a whole mesh of peers inside one process: every
// hosted peer gets its own loopback listener, directed peer pairs get
// lazy outbound connections, and a single epoll event-loop thread owns
// all sockets, all timers and every protocol callback. That last point
// is the seam contract that keeps the actors lock-free: frame
// deliveries, timer fires and peer up/down notifications are all
// serialized on the loop thread, exactly as the simulator serializes
// them on its caller thread.
//
//  * Frames are the canonical length-prefixed codec encodings
//    (src/net/tcp/frame.hpp). The network's encode-verify writes a
//    send's payload behind room for the frame head, send_frame fills the
//    head in (write_frame_head), and the socket sends that buffer, so a
//    payload is written once; a chaos duplicate is a copy of that buffer.
//    The receive loop reads into the connection's FrameAssembler and
//    decodes each frame where it landed; a buffer sized to a large frame
//    is freed once the frame is delivered. Arbitrary kernel chunking is
//    reassembled there, so partial reads and coalesced frames are
//    routine, not errors.
//  * The clock is CLOCK_MONOTONIC microseconds since construction;
//    timers ride a min-heap with lazy cancellation and fire at-or-after
//    their deadline on the loop thread.
//  * A broken connection is retried with jittered exponential backoff
//    (20 ms doubling up to 500 ms); frames queued while disconnected
//    are flushed on reconnect, frames already handed to the kernel are
//    lost with the connection — the protocols above already tolerate
//    message loss.
//  * shutdown() briefly flushes pending writes, then stops and joins
//    the loop thread and closes every socket. Destruction shuts down.
//
// Cross-thread entry points (schedule_after, post/call) funnel through
// an eventfd-woken task queue; everything else, send_frame included, is
// loop-thread-only: code on another thread sends through call(), as the
// seam requires of everything that touches actors. Accounting reads
// (Network::stats) are only safe on the loop thread (use call()) or
// after shutdown().
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <deque>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "net/tcp/frame.hpp"
#include "net/transport.hpp"
#include "obs/obs.hpp"

namespace p2pfl::net::tcp {

struct TcpTransportConfig {
  /// Peers hosted by this transport (each gets a loopback listener).
  std::vector<PeerId> peers;
  /// Seed of the transport's root RNG (actors fork from it, as they fork
  /// from the simulator's).
  std::uint64_t seed = 1;
  /// Per-directed-pair outbound queue cap, in frames. When a dead or
  /// stalled peer lets the queue reach the cap, the oldest *undelivered*
  /// frame is dropped (never the partially-written front, which would
  /// tear the stream) and `net.tcp.outq_dropped` counts it. 0 = no cap.
  std::size_t max_outq_frames = 4096;
};

class TcpTransport final : public Transport {
 public:
  explicit TcpTransport(TcpTransportConfig cfg);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  // --- Transport --------------------------------------------------------
  bool deterministic() const override { return false; }
  SimTime now() const override;
  TimerToken schedule_after(SimDuration delay,
                            std::function<void()> fn) override;
  bool cancel(TimerToken token) override;
  /// tcp::frame_head_bytes: the length prefix, header and payload length.
  std::size_t frame_head_bytes(const std::string& kind) const override;
  /// Fill in the head the Network reserved in front of the payload it
  /// encoded (write_frame_head) and queue that buffer on the from->to
  /// connection: the bytes the encoder wrote are the bytes the socket
  /// sends. from==to skips the wire but still decodes the frame, through
  /// the task queue. Loop thread only; CHECK-fails elsewhere and on an
  /// empty `frame` (no verified encoding). `model_delay` is ignored: the
  /// wire provides the timing.
  void send_frame(Envelope&& env, SimDuration model_delay,
                  Bytes&& frame) override;
  void set_sink(FrameSink* sink) override { sink_ = sink; }
  obs::Observability& obs() override { return obs_; }
  Rng& rng() override { return rng_; }
  /// Bind + listen every hosted peer, then spawn the loop thread.
  void start() override;
  /// Flush what can be flushed, stop and join the loop, close sockets.
  /// Idempotent.
  void shutdown() override;
  /// Run `fn` on the loop thread and wait for it to finish. The only
  /// safe way for an external thread to touch actors or Network stats
  /// while the loop is running.
  void call(const std::function<void()>& fn) override;
  /// Evaluate `done` through call(), sleeping `poll` of wall-clock time
  /// between checks.
  bool run_until(const std::function<bool()>& done, SimDuration budget,
                 SimDuration poll) override;

  // --- cross-thread helpers ---------------------------------------------
  /// Run `fn` on the loop thread (immediately if already on it).
  void post(std::function<void()> fn);

  /// Loopback port a hosted peer listens on (valid after start()).
  std::uint16_t port_of(PeerId peer) const;

  // --- raw wire accounting (independent of Network's modeled charges) ---
  std::uint64_t raw_bytes_sent() const { return raw_bytes_sent_.load(); }
  std::uint64_t raw_bytes_received() const {
    return raw_bytes_received_.load();
  }
  std::uint64_t frames_sent() const { return frames_sent_.load(); }
  std::uint64_t frames_received() const { return frames_received_.load(); }

  /// Chaos: tear down every established connection between `a` and `b`
  /// in both directions, as if the kernel sent RST. The pairs reconnect
  /// through the normal (jittered) backoff path.
  void inject_connection_reset(PeerId a, PeerId b) override;

 private:
  struct Listener {
    PeerId peer = kNoPeer;
    int fd = -1;
    std::uint16_t port = 0;
  };

  /// One directed from->to outbound connection (lazily created).
  struct OutConn {
    PeerId from = kNoPeer;
    PeerId to = kNoPeer;
    int fd = -1;
    bool connected = false;  // connect() completed
    /// Queued frames, each a whole frame in its own buffer (the one the
    /// Network encoded the payload into), plus the write offset into the
    /// front frame. A frame's buffer is freed
    /// once the socket has taken its last byte. Queuing whole frames
    /// (not one flat buffer) lets a broken connection drop exactly the
    /// torn partially-written frame and resend the rest after reconnect.
    std::deque<Bytes> outq;
    std::size_t front_pos = 0;
    SimDuration backoff = 0;  // next reconnect delay (0 = fresh)
    TimerToken retry_timer = kNoTimerToken;
    /// Armed while the link table (a stall, throttle or egress cap)
    /// holds writes; fires a re-flush when the hold should clear.
    TimerToken flush_timer = kNoTimerToken;
  };

  /// One accepted inbound stream (sender anonymous; frames self-route).
  /// Slots are recycled through in_free_: a closed connection's record
  /// (and reset assembler) is reused by the next accept instead of
  /// growing the deque forever.
  struct InConn {
    int fd = -1;
    FrameAssembler assembler;
    std::size_t slot = 0;
  };

  struct TimerEntry {
    SimTime deadline = 0;
    TimerToken token = 0;
    bool operator>(const TimerEntry& o) const {
      return deadline != o.deadline ? deadline > o.deadline
                                    : token > o.token;
    }
  };

  static std::uint64_t pair_key(PeerId from, PeerId to) {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  bool on_loop_thread() const {
    return std::this_thread::get_id() == loop_thread_.get_id();
  }

  void run_loop();
  void wake();
  void drain_tasks();
  /// Fire timers due at `now_us`; returns µs until the next deadline
  /// (or -1 for none).
  SimTime fire_due_timers(SimTime now_us);

  // All loop-thread-only:
  /// Decode one frame body where it lies and hand it to the sink.
  void deliver_frame(ByteSpan body);
  OutConn& out_conn(PeerId from, PeerId to);
  void start_connect(OutConn& c);
  void flush_out(OutConn& c);
  void fail_out(OutConn& c, const char* reason);
  void schedule_reconnect(OutConn& c);
  void handle_accept(Listener& l);
  void handle_readable(InConn& c);
  void close_in(InConn& c);
  void epoll_add(int fd, std::uint32_t events);
  void epoll_mod(int fd, std::uint32_t events);
  void epoll_del(int fd);

  /// What an epoll-reported fd is. OutConns are referenced by pair key
  /// (their map can rehash); InConns live in a stable deque.
  struct FdRef {
    enum class Kind { kWake, kListener, kOut, kIn } kind = Kind::kWake;
    PeerId listener_peer = kNoPeer;
    std::uint64_t out_key = 0;
    InConn* in = nullptr;
  };

  TcpTransportConfig cfg_;
  Rng rng_;
  /// Loop-thread-updated µs clock the trace/span streams sample through.
  SimTime clock_us_ = 0;
  obs::Observability obs_;
  FrameSink* sink_ = nullptr;

  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> running_{false};
  bool started_ = false;
  bool shut_down_ = false;
  std::thread loop_thread_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  std::unordered_map<PeerId, Listener> listeners_;
  std::unordered_map<std::uint64_t, OutConn> out_conns_;
  /// Stable-address inbound records (FdRefs point at them).
  std::deque<InConn> in_conns_;
  /// Recyclable in_conns_ slots (closed connections).
  std::vector<std::size_t> in_free_;
  std::unordered_map<int, FdRef> fd_refs_;

  std::mutex task_mu_;
  std::deque<std::function<void()>> tasks_;

  std::mutex timer_mu_;
  TimerToken next_token_ = 1;
  std::unordered_map<TimerToken, std::function<void()>> timer_fns_;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>,
                      std::greater<TimerEntry>>
      timer_heap_;

  std::atomic<std::uint64_t> raw_bytes_sent_{0};
  std::atomic<std::uint64_t> raw_bytes_received_{0};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_received_{0};
};

}  // namespace p2pfl::net::tcp
