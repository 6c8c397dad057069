#include "net/tcp/tcp_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"

namespace p2pfl::net::tcp {

namespace {

/// Reconnect backoff: first retry after the min, doubling to the max.
constexpr SimDuration kReconnectBackoffMin = 20 * kMillisecond;
constexpr SimDuration kReconnectBackoffMax = 500 * kMillisecond;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  P2PFL_CHECK(flags >= 0);
  P2PFL_CHECK(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

TcpTransport::TcpTransport(TcpTransportConfig cfg)
    : cfg_(std::move(cfg)),
      rng_(cfg_.seed),
      obs_(&clock_us_),
      epoch_(std::chrono::steady_clock::now()) {
  P2PFL_CHECK(!cfg_.peers.empty());
}

TcpTransport::~TcpTransport() { shutdown(); }

SimTime TcpTransport::now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

TimerToken TcpTransport::schedule_after(SimDuration delay,
                                        std::function<void()> fn) {
  P2PFL_CHECK(fn != nullptr);
  if (delay < 0) delay = 0;
  const SimTime deadline = now() + delay;
  TimerToken token;
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    token = next_token_++;
    timer_fns_[token] = std::move(fn);
    timer_heap_.push(TimerEntry{deadline, token});
  }
  // A new earliest deadline must cut the loop's epoll timeout short.
  if (!on_loop_thread()) wake();
  return token;
}

bool TcpTransport::cancel(TimerToken token) {
  if (token == kNoTimerToken) return false;
  std::lock_guard<std::mutex> lock(timer_mu_);
  return timer_fns_.erase(token) > 0;  // heap entry expires lazily
}

void TcpTransport::post(std::function<void()> fn) {
  if (running_.load() && on_loop_thread()) {
    fn();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    tasks_.push_back(std::move(fn));
  }
  wake();
}

void TcpTransport::call(const std::function<void()>& fn) {
  if (running_.load() && on_loop_thread()) {
    fn();
    return;
  }
  P2PFL_CHECK_MSG(running_.load(),
                  "TcpTransport::call requires a running loop");
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    tasks_.push_back([&] {
      fn();
      std::lock_guard<std::mutex> l(mu);
      done = true;
      cv.notify_one();
    });
  }
  wake();
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
}

bool TcpTransport::run_until(const std::function<bool()>& done,
                             SimDuration budget, SimDuration poll) {
  const SimTime limit = now() + budget;
  for (;;) {
    bool ok = false;
    call([&] { ok = done(); });
    if (ok || now() >= limit) return ok;
    std::this_thread::sleep_for(std::chrono::microseconds(poll));
  }
}

std::uint16_t TcpTransport::port_of(PeerId peer) const {
  auto it = listeners_.find(peer);
  P2PFL_CHECK_MSG(it != listeners_.end(),
                  "peer " + std::to_string(peer) + " is not hosted here");
  return it->second.port;
}

void TcpTransport::start() {
  P2PFL_CHECK_MSG(!started_, "TcpTransport::start called twice");
  started_ = true;

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  P2PFL_CHECK(epoll_fd_ >= 0);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  P2PFL_CHECK(wake_fd_ >= 0);
  fd_refs_[wake_fd_] = FdRef{FdRef::Kind::kWake, kNoPeer, 0, nullptr};
  epoll_add(wake_fd_, EPOLLIN);

  for (PeerId peer : cfg_.peers) {
    Listener l;
    l.peer = peer;
    l.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    P2PFL_CHECK(l.fd >= 0);
    int one = 1;
    ::setsockopt(l.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral
    P2PFL_CHECK_MSG(
        ::bind(l.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
        std::string("bind(127.0.0.1) failed: ") + std::strerror(errno));
    P2PFL_CHECK(::listen(l.fd, 64) == 0);
    socklen_t len = sizeof(addr);
    P2PFL_CHECK(
        ::getsockname(l.fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0);
    l.port = ntohs(addr.sin_port);
    set_nonblocking(l.fd);
    fd_refs_[l.fd] = FdRef{FdRef::Kind::kListener, peer, 0, nullptr};
    epoll_add(l.fd, EPOLLIN);
    listeners_[peer] = l;
  }

  running_.store(true);
  loop_thread_ = std::thread([this] { run_loop(); });
}

void TcpTransport::shutdown() {
  if (!started_ || shut_down_) return;
  shut_down_ = true;

  // Best-effort flush: give queued outbound frames a moment to reach the
  // kernel before tearing the loop down.
  run_until(
      [this] {
        bool pending = false;
        for (auto& [key, c] : out_conns_) {
          (void)key;
          if (c.fd >= 0 && c.connected && !c.outq.empty()) {
            flush_out(c);
            if (!c.outq.empty()) pending = true;
          }
        }
        return !pending;
      },
      200 * kMillisecond, 2 * kMillisecond);

  running_.store(false);
  wake();
  if (loop_thread_.joinable()) loop_thread_.join();

  for (auto& [key, c] : out_conns_) {
    (void)key;
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
  }
  for (InConn& c : in_conns_) {
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
  }
  for (auto& [peer, l] : listeners_) {
    (void)peer;
    if (l.fd >= 0) ::close(l.fd);
    l.fd = -1;
  }
  if (wake_fd_ >= 0) ::close(wake_fd_);
  wake_fd_ = -1;
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  epoll_fd_ = -1;
  fd_refs_.clear();
}

void TcpTransport::wake() {
  if (wake_fd_ < 0) return;
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void TcpTransport::drain_tasks() {
  for (;;) {
    std::deque<std::function<void()>> batch;
    {
      std::lock_guard<std::mutex> lock(task_mu_);
      if (tasks_.empty()) return;
      batch.swap(tasks_);
    }
    for (auto& fn : batch) {
      clock_us_ = now();
      fn();
    }
  }
}

SimTime TcpTransport::fire_due_timers(SimTime now_us) {
  std::vector<std::function<void()>> due;
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    while (!timer_heap_.empty()) {
      const TimerEntry top = timer_heap_.top();
      auto it = timer_fns_.find(top.token);
      if (it == timer_fns_.end()) {  // cancelled: expire lazily
        timer_heap_.pop();
        continue;
      }
      if (top.deadline > now_us) break;
      due.push_back(std::move(it->second));
      timer_fns_.erase(it);
      timer_heap_.pop();
    }
  }
  for (auto& fn : due) {
    clock_us_ = now();
    fn();
  }
  std::lock_guard<std::mutex> lock(timer_mu_);
  while (!timer_heap_.empty() &&
         timer_fns_.count(timer_heap_.top().token) == 0) {
    timer_heap_.pop();
  }
  return timer_heap_.empty() ? -1 : timer_heap_.top().deadline;
}

void TcpTransport::run_loop() {
  epoll_event events[64];
  while (running_.load()) {
    clock_us_ = now();
    drain_tasks();
    const SimTime next_deadline = fire_due_timers(now());
    int timeout_ms = 100;
    if (next_deadline >= 0) {
      const SimTime delta_us = next_deadline - now();
      if (delta_us <= 0) {
        timeout_ms = 0;
      } else {
        const SimTime ms = (delta_us + 999) / 1000;
        timeout_ms = ms > 100 ? 100 : static_cast<int>(ms);
      }
    }
    const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
    if (n < 0) {
      P2PFL_CHECK_MSG(errno == EINTR, std::string("epoll_wait failed: ") +
                                          std::strerror(errno));
      continue;
    }
    clock_us_ = now();
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      auto rit = fd_refs_.find(fd);
      if (rit == fd_refs_.end()) continue;  // closed earlier in this batch
      const FdRef ref = rit->second;
      const std::uint32_t ev = events[i].events;
      switch (ref.kind) {
        case FdRef::Kind::kWake: {
          std::uint64_t drained;
          while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
          }
          break;
        }
        case FdRef::Kind::kListener:
          handle_accept(listeners_[ref.listener_peer]);
          break;
        case FdRef::Kind::kOut: {
          auto oit = out_conns_.find(ref.out_key);
          if (oit == out_conns_.end() || oit->second.fd != fd) break;
          OutConn& c = oit->second;
          if ((ev & (EPOLLERR | EPOLLHUP)) != 0) {
            fail_out(c, "connection_error");
            break;
          }
          if ((ev & EPOLLOUT) != 0) {
            if (!c.connected) {
              int err = 0;
              socklen_t len = sizeof(err);
              ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
              if (err != 0) {
                fail_out(c, "connect_failed");
                break;
              }
              c.connected = true;
              c.backoff = 0;
              obs_.metrics.counter("net.tcp.connects").add(1);
              if (sink_ != nullptr) sink_->transport_peer_up(c.to);
            }
            flush_out(c);
          }
          if ((ev & EPOLLIN) != 0 && c.fd >= 0) {
            // Receivers never write to us; readable means EOF or reset.
            char probe;
            const ssize_t r = ::recv(c.fd, &probe, 1, MSG_PEEK);
            if (r == 0 || (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
              fail_out(c, "peer_closed");
            }
          }
          break;
        }
        case FdRef::Kind::kIn:
          if (ref.in->fd == fd) handle_readable(*ref.in);
          break;
      }
    }
  }
  drain_tasks();  // run stragglers (unblocks any call() in flight)
}

std::size_t TcpTransport::frame_head_bytes(const std::string& kind) const {
  return tcp::frame_head_bytes(kind);
}

void TcpTransport::send_frame(Envelope&& env, SimDuration model_delay,
                              Bytes&& frame) {
  (void)model_delay;  // the wire provides the timing
  P2PFL_CHECK_MSG(on_loop_thread(),
                  "TcpTransport::send_frame runs on the loop thread; send "
                  "through call()");
  P2PFL_CHECK_MSG(!frame.empty(),
                  "kind '" + env.kind +
                      "' has no verified canonical encoding; only canonical "
                      "codec frames may cross the TCP transport");
  P2PFL_CHECK(sink_ != nullptr);
  write_frame_head(env, frame);
  if (env.from == env.to) {
    // Self-delivery skips the wire but still decodes the canonical frame,
    // and is deferred through the task queue so the sender never sees a
    // reentrant delivery (mirrors the simulator's schedule-at-0 self
    // path).
    auto boxed = std::make_shared<Bytes>(std::move(frame));
    {
      std::lock_guard<std::mutex> lock(task_mu_);
      tasks_.push_back(
          [this, boxed] { deliver_frame(ByteSpan(*boxed).subspan(4)); });
    }
    wake();
    return;
  }
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
  OutConn& c = out_conn(env.from, env.to);
  c.outq.push_back(std::move(frame));
  if (cfg_.max_outq_frames > 0 && c.outq.size() > cfg_.max_outq_frames) {
    // Bounded queue: drop the oldest undelivered frame. The front frame
    // is exempt while partially written — dropping it would tear the
    // byte stream at an unknowable point.
    const std::size_t victim = c.front_pos > 0 ? 1 : 0;
    c.outq.erase(c.outq.begin() + static_cast<std::ptrdiff_t>(victim));
    obs_.metrics.counter("net.tcp.outq_dropped").add(1);
  }
  if (c.fd < 0 && c.retry_timer == kNoTimerToken) start_connect(c);
  if (c.connected) flush_out(c);
}

void TcpTransport::deliver_frame(ByteSpan body) {
  std::optional<Envelope> env = decode_frame(body);
  if (!env.has_value()) {
    obs_.metrics.counter("net.tcp.bad_frames").add(1);
    return;
  }
  frames_received_.fetch_add(1, std::memory_order_relaxed);
  if (sink_ != nullptr) sink_->transport_deliver(*env);
}

TcpTransport::OutConn& TcpTransport::out_conn(PeerId from, PeerId to) {
  const std::uint64_t key = pair_key(from, to);
  auto it = out_conns_.find(key);
  if (it == out_conns_.end()) {
    OutConn c;
    c.from = from;
    c.to = to;
    it = out_conns_.emplace(key, std::move(c)).first;
  }
  return it->second;
}

void TcpTransport::start_connect(OutConn& c) {
  P2PFL_CHECK(c.fd < 0);
  c.connected = false;
  c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  P2PFL_CHECK(c.fd >= 0);
  set_nonblocking(c.fd);
  set_nodelay(c.fd);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_of(c.to));
  const int rc =
      ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    fail_out(c, "connect_failed");
    return;
  }
  fd_refs_[c.fd] = FdRef{FdRef::Kind::kOut, kNoPeer, pair_key(c.from, c.to),
                         nullptr};
  epoll_add(c.fd, EPOLLIN | EPOLLOUT);
}

void TcpTransport::flush_out(OutConn& c) {
  // The sink's link table gates writes at frame boundaries only (a frame
  // already in flight is always finished, never torn). While a stall,
  // throttle or egress cap holds the link, frames accumulate in the
  // bounded outq exactly like behind a real slow peer; a timer
  // re-flushes when the hold should clear.
  LinkTable* links =
      sink_ != nullptr && sink_->links().active() ? &sink_->links() : nullptr;
  while (!c.outq.empty()) {
    if (links != nullptr && c.front_pos == 0) {
      const SimTime now_us = now();
      const SimTime at = links->writable_at(c.from, c.to, now_us);
      if (at > now_us) {
        if (c.flush_timer == kNoTimerToken) {
          const std::uint64_t key = pair_key(c.from, c.to);
          c.flush_timer = schedule_after(at - now_us, [this, key] {
            auto it = out_conns_.find(key);
            if (it == out_conns_.end()) return;
            it->second.flush_timer = kNoTimerToken;
            if (it->second.connected) flush_out(it->second);
          });
        }
        epoll_mod(c.fd, EPOLLIN);  // don't spin on writability
        return;
      }
    }
    const Bytes& front = c.outq.front();
    const std::size_t remaining = front.size() - c.front_pos;
    const ssize_t n =
        ::send(c.fd, front.data() + c.front_pos, remaining, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        epoll_mod(c.fd, EPOLLIN | EPOLLOUT);
        return;
      }
      fail_out(c, "write_failed");
      return;
    }
    raw_bytes_sent_.fetch_add(static_cast<std::uint64_t>(n),
                              std::memory_order_relaxed);
    c.front_pos += static_cast<std::size_t>(n);
    if (c.front_pos == front.size()) {
      if (links != nullptr) links->note_written(c.from, front.size(), now());
      c.outq.pop_front();
      c.front_pos = 0;
    }
  }
  // Fully drained: stop asking for writability.
  epoll_mod(c.fd, EPOLLIN);
}

void TcpTransport::fail_out(OutConn& c, const char* reason) {
  if (c.fd >= 0) {
    epoll_del(c.fd);
    fd_refs_.erase(c.fd);
    ::close(c.fd);
    c.fd = -1;
  }
  const bool was_connected = c.connected;
  c.connected = false;
  if (c.front_pos > 0) {
    // The front frame was partially written: the stream is torn at an
    // unknowable point, so that frame is lost with the connection.
    c.outq.pop_front();
    c.front_pos = 0;
    obs_.metrics.counter("net.tcp.torn_frames").add(1);
  }
  obs_.metrics.counter(std::string("net.tcp.conn_fail.") + reason).add(1);
  if (was_connected && sink_ != nullptr) {
    sink_->transport_peer_down(c.to, reason);
  }
  if (!c.outq.empty()) schedule_reconnect(c);
}

void TcpTransport::schedule_reconnect(OutConn& c) {
  if (c.retry_timer != kNoTimerToken) return;
  c.backoff = c.backoff == 0 ? kReconnectBackoffMin
                             : std::min(c.backoff * 2, kReconnectBackoffMax);
  // Jitter the delay uniformly in [backoff/2, backoff] so the mesh's
  // retries against a dead peer spread out instead of synchronizing
  // into a reconnect storm.
  const SimDuration delay = rng_.uniform_int(c.backoff / 2, c.backoff);
  const std::uint64_t key = pair_key(c.from, c.to);
  c.retry_timer = schedule_after(delay, [this, key] {
    auto it = out_conns_.find(key);
    if (it == out_conns_.end()) return;
    OutConn& conn = it->second;
    conn.retry_timer = kNoTimerToken;
    if (conn.fd < 0 && !conn.outq.empty()) start_connect(conn);
  });
}

void TcpTransport::handle_accept(Listener& l) {
  for (;;) {
    const int fd = ::accept4(l.fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      obs_.metrics.counter("net.tcp.accept_fail").add(1);
      return;
    }
    set_nodelay(fd);
    InConn* c;
    if (!in_free_.empty()) {
      // Reuse a closed slot: its assembler was reset on close, so a
      // previously poisoned stream never haunts a fresh connection.
      c = &in_conns_[in_free_.back()];
      in_free_.pop_back();
    } else {
      in_conns_.emplace_back();
      c = &in_conns_.back();
      c->slot = in_conns_.size() - 1;
    }
    c->fd = fd;
    fd_refs_[fd] = FdRef{FdRef::Kind::kIn, kNoPeer, 0, c};
    epoll_add(fd, EPOLLIN);
    obs_.metrics.counter("net.tcp.accepts").add(1);
  }
}

void TcpTransport::handle_readable(InConn& c) {
  // Frames are decoded where they were read, in the assembler's buffer.
  const FrameAssembler::FrameFn deliver = [this](ByteSpan body) {
    deliver_frame(body);
  };
  for (;;) {
    const std::span<std::uint8_t> space = c.assembler.read_space();
    const ssize_t n = ::recv(c.fd, space.data(), space.size(), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      close_in(c);
      return;
    }
    if (n == 0) {  // clean EOF
      close_in(c);
      return;
    }
    raw_bytes_received_.fetch_add(static_cast<std::uint64_t>(n),
                                  std::memory_order_relaxed);
    if (!c.assembler.received(static_cast<std::size_t>(n), deliver)) {
      // Oversized length prefix: stream desync, the connection is dead.
      obs_.metrics.counter("net.tcp.frame_protocol_error").add(1);
      close_in(c);
      return;
    }
    if (c.fd < 0) return;  // a delivery closed us (shutdown path)
  }
}

void TcpTransport::close_in(InConn& c) {
  if (c.fd < 0) return;
  epoll_del(c.fd);
  fd_refs_.erase(c.fd);
  ::close(c.fd);
  c.fd = -1;
  // Clear any poisoned/partial stream state, free the buffer and recycle
  // the slot; the sender's reconnect (or its next send) re-handshakes
  // onto a fresh accept that may land right back here.
  c.assembler.reset();
  in_free_.push_back(c.slot);
}

void TcpTransport::inject_connection_reset(PeerId a, PeerId b) {
  post([this, a, b] {
    obs_.metrics.counter("chaos.transport.conn_resets").add(1);
    for (auto& [key, c] : out_conns_) {
      (void)key;
      if (((c.from == a && c.to == b) || (c.from == b && c.to == a)) &&
          c.fd >= 0) {
        // Closing the outbound fd RSTs the whole socket, so the
        // accepted inbound half dies with it; fail_out re-queues the
        // reconnect when traffic is pending.
        fail_out(c, "chaos_reset");
      }
    }
  });
}

void TcpTransport::epoll_add(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  P2PFL_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0);
}

void TcpTransport::epoll_mod(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  P2PFL_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0);
}

void TcpTransport::epoll_del(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

}  // namespace p2pfl::net::tcp
