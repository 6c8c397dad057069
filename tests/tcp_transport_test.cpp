// TcpTransport behavior over real loopback sockets: timers on the
// monotonic clock, typed frame delivery with exact Network accounting,
// frames sent from the buffer their payload was encoded into (and chaos
// duplicates copied from it) on the loop thread only, large frames
// crossing partial writes, reconnect-with-backoff after a connection
// reset, and thread-safety of the obs registry under concurrent
// hammering (the configuration the TSan CI job compiles).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/wire.hpp"
#include "net/network.hpp"
#include "net/tcp/tcp_transport.hpp"
#include "obs/metrics.hpp"

namespace p2pfl::net::tcp {
namespace {

using namespace std::chrono_literals;

/// Budget and poll step of the waits on loop-thread state below.
constexpr SimDuration kWait = 20 * kSecond;
constexpr SimDuration kPoll = 2 * kMillisecond;

struct CollectingEndpoint : Endpoint {
  std::mutex mu;
  std::vector<Envelope> got;
  void deliver(const Envelope& env) override {
    std::lock_guard<std::mutex> lock(mu);
    got.push_back(env);
  }
  std::size_t count() {
    std::lock_guard<std::mutex> lock(mu);
    return got.size();
  }
};

Envelope result_envelope(PeerId from, PeerId to, std::size_t dim,
                         std::uint64_t round = 1) {
  core::wire::register_codecs();
  core::wire::AggResultMsg msg;
  msg.round = round;
  msg.model.assign(dim, 0.5f);
  Envelope env;
  env.from = from;
  env.to = to;
  env.kind = "agg/result";
  env.body = std::move(msg);
  env.wire_bytes = core::wire::kResultHeader + 4 * dim;
  env.payload_bytes = 4 * dim;
  return env;
}

TEST(TcpTransport, StartsAndShutsDownCleanly) {
  TcpTransport t({.peers = {0, 1}, .seed = 7});
  EXPECT_FALSE(t.deterministic());
  t.start();
  EXPECT_GT(t.port_of(0), 0);
  EXPECT_GT(t.port_of(1), 0);
  EXPECT_NE(t.port_of(0), t.port_of(1));
  t.shutdown();
  t.shutdown();  // idempotent
}

TEST(TcpTransport, TimerFiresAtOrAfterDeadlineOnLoopThread) {
  TcpTransport t({.peers = {0}, .seed = 7});
  t.start();
  std::mutex mu;
  std::condition_variable cv;
  bool fired = false;
  SimTime fire_time = 0;
  const SimTime scheduled_at = t.now();
  t.schedule_after(20 * kMillisecond, [&] {
    std::lock_guard<std::mutex> lock(mu);
    fired = true;
    fire_time = t.now();
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return fired; }));
  EXPECT_GE(fire_time, scheduled_at + 20 * kMillisecond);
  lock.unlock();
  t.shutdown();
}

TEST(TcpTransport, CancelledTimerNeverFires) {
  TcpTransport t({.peers = {0}, .seed = 7});
  t.start();
  std::atomic<bool> fired{false};
  const TimerToken tok =
      t.schedule_after(30 * kMillisecond, [&] { fired.store(true); });
  EXPECT_TRUE(t.cancel(tok));
  EXPECT_FALSE(t.cancel(tok));  // second cancel is a no-op
  EXPECT_FALSE(t.run_until([&] { return fired.load(); }, 80 * kMillisecond,
                           5 * kMillisecond));
  t.shutdown();
}

TEST(TcpTransport, NetTimerPeriodicTicksOnRealClock) {
  TcpTransport t({.peers = {0}, .seed = 7});
  t.start();
  std::atomic<int> fires{0};
  net::Timer timer(
      t, [&] { fires.fetch_add(1); }, "test.periodic");
  t.call([&] { timer.arm_periodic(10 * kMillisecond); });
  EXPECT_TRUE(t.run_until([&] { return fires.load() >= 3; }, 10 * kSecond,
                          5 * kMillisecond));
  t.call([&] { timer.cancel(); });
  // net::Timer counts its firings under the same name on the real clock.
  EXPECT_GE(t.obs().metrics.counter_value("sim.timer_fires"), 3u);
  t.shutdown();
}

TEST(TcpTransport, DeliversTypedFramesWithExactAccounting) {
  TcpTransport t({.peers = {0, 1}, .seed = 7});
  Network net(t, {});
  CollectingEndpoint e0, e1;
  net.attach(0, &e0);
  net.attach(1, &e1);
  t.start();
  constexpr std::size_t kDim = 5;
  constexpr int kMsgs = 10;
  t.call([&] {
    for (int i = 0; i < kMsgs; ++i) {
      net.send(result_envelope(0, 1, kDim, 1 + i));
    }
  });
  ASSERT_TRUE(t.run_until(
      [&] { return net.stats().delivered.messages == kMsgs; }, kWait, kPoll));
  t.shutdown();

  ASSERT_EQ(e1.count(), static_cast<std::size_t>(kMsgs));
  const std::uint64_t wire = core::wire::kResultHeader + 4 * kDim;
  const auto& st = net.stats();
  EXPECT_EQ(st.sent.messages, static_cast<std::uint64_t>(kMsgs));
  EXPECT_EQ(st.sent.bytes, kMsgs * wire);
  EXPECT_EQ(st.sent.payload, kMsgs * 4 * kDim);
  EXPECT_EQ(st.delivered.bytes, st.sent.bytes);
  EXPECT_EQ(st.delivered.payload, st.sent.payload);
  // In-order delivery on one connection.
  for (int i = 0; i < kMsgs; ++i) {
    const auto* msg = payload<core::wire::AggResultMsg>(e1.got[i].body);
    ASSERT_NE(msg, nullptr);
    EXPECT_EQ(msg->round, static_cast<std::uint64_t>(1 + i));
  }
  // The raw wire moved at least the framed bytes of every message.
  EXPECT_EQ(t.frames_sent(), static_cast<std::uint64_t>(kMsgs));
  EXPECT_EQ(t.frames_received(), static_cast<std::uint64_t>(kMsgs));
  EXPECT_GE(t.raw_bytes_sent(), kMsgs * (wire + 4));
  EXPECT_EQ(t.raw_bytes_received(), t.raw_bytes_sent());
}

TEST(TcpTransport, EachSendIsItsEncodedFrameBehindTheLengthPrefix) {
  TcpTransport t({.peers = {0, 1}, .seed = 7});
  Network net(t, {});
  CollectingEndpoint e0, e1;
  net.attach(0, &e0);
  net.attach(1, &e1);
  t.start();
  // Through the Network on the loop thread, whose encode-verify bytes
  // become the frame's payload...
  t.call([&] {
    for (std::size_t i = 0; i < 3; ++i) {
      net.send(result_envelope(0, 1, 1000 * i + 3, 1 + i));
    }
  });
  // ...and straight into the transport, on the loop thread, in a buffer
  // laid out as the Network lays it: room for the head, then the
  // payload's encoding.
  Envelope direct = result_envelope(0, 1, 7, 9);
  Bytes frame(t.frame_head_bytes(direct.kind));
  const Bytes encoded =
      encode_wire(*payload<core::wire::AggResultMsg>(direct.body));
  frame.insert(frame.end(), encoded.begin(), encoded.end());
  // Off the loop thread, or with no encoding, the transport refuses it.
  EXPECT_THROW(t.send_frame(Envelope(direct), 0, Bytes(frame)),
               std::logic_error);
  t.call([&] {
    EXPECT_THROW(t.send_frame(Envelope(direct), 0, Bytes{}),
                 std::logic_error);
    t.send_frame(std::move(direct), 0, std::move(frame));
  });
  ASSERT_TRUE(t.run_until([&] { return e1.count() == 4; }, kWait, kPoll));
  t.shutdown();
  // The stream carried exactly encode_frame() of each delivered envelope
  // behind its 4-byte length prefix, and each decoded strictly.
  std::uint64_t framed = 0;
  for (const Envelope& env : e1.got) framed += 4 + encode_frame(env).size();
  EXPECT_EQ(t.raw_bytes_sent(), framed);
  EXPECT_EQ(t.raw_bytes_received(), framed);
  const auto* last = payload<core::wire::AggResultMsg>(e1.got.back().body);
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->round, 9u);
  EXPECT_EQ(last->model, std::vector<float>(7, 0.5f));
}

TEST(TcpTransport, InPlaceFramesCrossTheWireAfterALargeOne) {
  // Each send's frame is the buffer its payload was encoded into: a
  // 100k-float frame, then small ones on the same link, each behind its
  // own exact length prefix, with no byte of the large one left over.
  TcpTransport t({.peers = {0, 1}, .seed = 7});
  Network net(t, {});
  CollectingEndpoint e0, e1;
  net.attach(0, &e0);
  net.attach(1, &e1);
  t.start();
  const std::size_t dims[] = {100000, 3, 0, 100000, 0};
  t.call([&] {
    for (std::size_t i = 0; i < std::size(dims); ++i) {
      net.send(result_envelope(0, 1, dims[i], 1 + i));
    }
  });
  ASSERT_TRUE(t.run_until([&] { return e1.count() == std::size(dims); },
                          kWait, kPoll));
  t.shutdown();
  EXPECT_EQ(t.obs().metrics.counter_value("net.tcp.bad_frames"), 0u);
  EXPECT_EQ(t.obs().metrics.counter_value("net.tcp.frame_protocol_error"),
            0u);
  std::uint64_t framed = 0;
  for (std::size_t i = 0; i < std::size(dims); ++i) {
    const auto* msg = payload<core::wire::AggResultMsg>(e1.got[i].body);
    ASSERT_NE(msg, nullptr);
    EXPECT_EQ(msg->round, 1 + i);
    EXPECT_EQ(msg->model, std::vector<float>(dims[i], 0.5f)) << "send " << i;
    framed += 4 + encode_frame(e1.got[i]).size();
  }
  EXPECT_EQ(t.raw_bytes_sent(), framed);
  EXPECT_EQ(t.raw_bytes_received(), framed);
}

TEST(TcpTransport, ChaosDuplicateDeliversTwoIdenticalFrames) {
  // With every send duplicated, the copy is written from the payload in
  // the original's buffer before that buffer is queued, sent and freed
  // (the sanitizer jobs run this): two frames per send arrive, equal but
  // for the duplicate flag, and only the original counts as delivered.
  TcpTransport t({.peers = {0, 1}, .seed = 7});
  Network net(t, {.faults = {.duplicate_prob = 1.0}});
  CollectingEndpoint e0, e1;
  net.attach(0, &e0);
  net.attach(1, &e1);
  t.start();
  const std::size_t dims[] = {100000, 3, 100000};
  t.call([&] {
    for (std::size_t i = 0; i < std::size(dims); ++i) {
      net.send(result_envelope(0, 1, dims[i], 1 + i));
    }
  });
  ASSERT_TRUE(t.run_until([&] { return e1.count() == 2 * std::size(dims); },
                          kWait, kPoll));
  t.shutdown();
  std::uint64_t framed = 0;
  for (std::size_t i = 0; i < std::size(dims); ++i) {
    const Envelope& dup = e1.got[2 * i];
    const Envelope& original = e1.got[2 * i + 1];
    EXPECT_TRUE(dup.chaos_duplicate) << "send " << i;
    EXPECT_FALSE(original.chaos_duplicate) << "send " << i;
    Envelope unflagged = dup;
    unflagged.chaos_duplicate = false;
    EXPECT_EQ(encode_frame(unflagged), encode_frame(original)) << "send " << i;
    const auto* msg = payload<core::wire::AggResultMsg>(original.body);
    ASSERT_NE(msg, nullptr);
    EXPECT_EQ(msg->model, std::vector<float>(dims[i], 0.5f)) << "send " << i;
    framed += 2 * (4 + encode_frame(original).size());
  }
  EXPECT_EQ(t.raw_bytes_sent(), framed);
  EXPECT_EQ(t.raw_bytes_received(), framed);
  EXPECT_EQ(net.stats().delivered.messages, std::size(dims));
  EXPECT_EQ(net.stats().duplicated.messages, std::size(dims));
}

TEST(TcpTransport, SelfSendDeliversWithoutWireAccounting) {
  TcpTransport t({.peers = {0}, .seed = 7});
  Network net(t, {});
  CollectingEndpoint e0;
  net.attach(0, &e0);
  t.start();
  t.call([&] { net.send(result_envelope(0, 0, 3)); });
  ASSERT_TRUE(t.run_until([&] { return e0.count() == 1; }, kWait, kPoll));
  t.shutdown();
  // Self-sends bypass both the modeled accounting and the raw wire,
  // exactly like the simulator path.
  EXPECT_EQ(net.stats().sent.messages, 0u);
  EXPECT_EQ(net.stats().delivered.messages, 0u);
  EXPECT_EQ(t.raw_bytes_sent(), 0u);
}

TEST(TcpTransport, LargeFrameSurvivesPartialWrites) {
  TcpTransport t({.peers = {0, 1}, .seed = 7});
  Network net(t, {});
  CollectingEndpoint e0;
  CollectingEndpoint e1;
  net.attach(0, &e0);
  net.attach(1, &e1);
  t.start();
  // ~4 MB of floats: far beyond any socket buffer, so the loop must
  // finish the frame across many EPOLLOUT rounds.
  constexpr std::size_t kDim = 1u << 20;
  t.call([&] { net.send(result_envelope(0, 1, kDim)); });
  ASSERT_TRUE(
      t.run_until([&] { return e1.count() == 1; }, 60 * kSecond, kPoll));
  t.shutdown();
  const auto* msg = payload<core::wire::AggResultMsg>(e1.got[0].body);
  ASSERT_NE(msg, nullptr);
  ASSERT_EQ(msg->model.size(), kDim);
  EXPECT_EQ(msg->model.front(), 0.5f);
  EXPECT_EQ(msg->model.back(), 0.5f);
  EXPECT_GE(t.raw_bytes_received(), 4 * kDim);
}

TEST(TcpTransport, InjectedConnectionResetHealsWithoutLoss) {
  TcpTransport t({.peers = {0, 1}, .seed = 7});
  Network net(t, {});
  CollectingEndpoint e0;
  CollectingEndpoint e1;
  net.attach(0, &e0);
  net.attach(1, &e1);
  t.start();
  t.call([&] { net.send(result_envelope(0, 1, 4, 1)); });
  ASSERT_TRUE(t.run_until([&] { return e1.count() == 1; }, kWait, kPoll));

  // The chaos entry point: RST both directed connections of the pair,
  // then keep sending — reconnect must flush everything queued.
  t.inject_connection_reset(0, 1);
  t.call([&] {
    for (int i = 0; i < 5; ++i) net.send(result_envelope(0, 1, 4, 10 + i));
  });
  ASSERT_TRUE(t.run_until([&] { return e1.count() == 6; }, kWait, kPoll));
  t.shutdown();
  EXPECT_GE(t.obs().metrics.counter_value("chaos.transport.conn_resets"), 1u);
  EXPECT_GE(t.obs().metrics.counter_value("net.tcp.connects"), 2u);
  const auto* last = payload<core::wire::AggResultMsg>(e1.got.back().body);
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->round, 14u);
}

TEST(TcpTransport, BoundedOutqDropsOldestUnderStall) {
  TcpTransportConfig cfg{.peers = {0, 1}, .seed = 7};
  cfg.max_outq_frames = 4;
  TcpTransport t(cfg);
  Network net(t, {});
  CollectingEndpoint e0;
  CollectingEndpoint e1;
  net.attach(0, &e0);
  net.attach(1, &e1);
  t.start();

  // Gate the 0->1 link far into the future so nothing leaves the queue,
  // then overfill it: the cap must shed from the front (oldest first).
  t.call([&] {
    net.links().stall_link(0, 1, t.now() + 3600 * kSecond);
    for (int i = 0; i < 10; ++i) net.send(result_envelope(0, 1, 4, 10 + i));
  });
  ASSERT_TRUE(t.run_until(
      [&] {
        return t.obs().metrics.counter_value("net.tcp.outq_dropped") >= 6;
      },
      kWait, kPoll));
  EXPECT_EQ(e1.count(), 0u);  // everything still held

  // Lift the stall; the next send both re-triggers the flush and (queue
  // still full) evicts one more victim. Survivors arrive in order.
  t.call([&] {
    net.links().clear(t.now());
    net.send(result_envelope(0, 1, 4, 99));
  });
  ASSERT_TRUE(t.run_until([&] { return e1.count() == 4; }, kWait, kPoll));
  t.shutdown();
  EXPECT_EQ(t.obs().metrics.counter_value("net.tcp.outq_dropped"), 7u);
  const std::uint64_t want[] = {17, 18, 19, 99};
  for (int i = 0; i < 4; ++i) {
    const auto* msg = payload<core::wire::AggResultMsg>(e1.got[i].body);
    ASSERT_NE(msg, nullptr);
    EXPECT_EQ(msg->round, want[i]);
  }
}

TEST(TcpTransport, EgressCapPacesWrites) {
  TcpTransport t({.peers = {0, 1}, .seed = 7});
  // 1 MB/s: each ~200 KB frame occupies peer 0's egress for ~0.2 s.
  Network net(t, {.egress_bytes_per_sec = 1'000'000});
  // Written on the loop thread; read there through run_until, and here
  // after shutdown() joined it.
  struct ArrivalClock : Endpoint {
    explicit ArrivalClock(TcpTransport& t) : t(t) {}
    TcpTransport& t;
    SimTime last = 0;
    int count = 0;
    void deliver(const Envelope&) override {
      last = t.now();
      ++count;
    }
  } e1(t);
  net.attach(1, &e1);
  t.start();
  SimTime first_send = 0;
  t.call([&] {
    first_send = t.now();
    for (int i = 0; i < 3; ++i) {
      net.send(result_envelope(0, 1, 50'000, 1 + i));
    }
  });
  ASSERT_TRUE(t.run_until([&] { return e1.count == 3; }, kWait, kPoll));
  t.shutdown();
  // The first frame leaves at once; the third waits out the first two.
  EXPECT_GE(e1.last - first_send, 400 * kMillisecond);
}

TEST(TcpTransport, OversizeFramePoisonsOnlyThatConnection) {
  TcpTransport t({.peers = {0, 1}, .seed = 7});
  Network net(t, {});
  CollectingEndpoint e0;
  CollectingEndpoint e1;
  net.attach(0, &e0);
  net.attach(1, &e1);
  t.start();
  t.call([&] { net.send(result_envelope(0, 1, 4, 1)); });
  ASSERT_TRUE(t.run_until([&] { return e1.count() == 1; }, kWait, kPoll));

  // A rogue stream: connect straight to peer 1's listener and write an
  // oversized length prefix (stream desync). The transport must kill
  // that inbound connection — and only that one.
  const int rogue = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(rogue, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(t.port_of(1));
  ASSERT_EQ(::connect(rogue, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::uint8_t poison[4] = {0xff, 0xff, 0xff, 0xff};  // 4 GB "frame"
  ASSERT_EQ(::send(rogue, poison, sizeof(poison), 0), 4);
  ASSERT_TRUE(t.run_until(
      [&] {
        return t.obs().metrics.counter_value(
                   "net.tcp.frame_protocol_error") == 1;
      },
      kWait, kPoll));

  // The legitimate 0->1 stream is untouched...
  t.call([&] { net.send(result_envelope(0, 1, 4, 2)); });
  ASSERT_TRUE(t.run_until([&] { return e1.count() == 2; }, kWait, kPoll));

  // ...and the freed inbound slot is reusable: reset the pair so the
  // reconnect's fresh accept may land on the recycled (reset,
  // un-poisoned) slot.
  t.inject_connection_reset(0, 1);
  t.call([&] { net.send(result_envelope(0, 1, 4, 3)); });
  ASSERT_TRUE(t.run_until([&] { return e1.count() == 3; }, kWait, kPoll));
  ::close(rogue);
  t.shutdown();
  const auto* last = payload<core::wire::AggResultMsg>(e1.got.back().body);
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->round, 3u);
}

TEST(ObsThreadSafety, RegistryAndCountersSurviveConcurrentHammering) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&reg, th] {
      // Mix shared-counter hammering with concurrent creation of fresh
      // names — the exact pattern a transport thread and a polling
      // thread produce.
      obs::Counter& shared = reg.counter("hammer.shared");
      obs::Gauge& gauge = reg.gauge("hammer.gauge");
      obs::Counter& own =
          reg.counter("hammer.thread." + std::to_string(th));
      for (int i = 0; i < kIters; ++i) {
        shared.add(1);
        own.add(2);
        gauge.add(1);
        gauge.add(-1);
        if (i % 1024 == 0) {
          reg.counter("hammer.lazy." + std::to_string(th) + "." +
                      std::to_string(i / 1024));
        }
        (void)reg.counter_value("hammer.shared");
      }
    });
  }
  for (auto& t : threads) t.join();
  // Exact totals: no update was lost or torn.
  EXPECT_EQ(reg.counter_value("hammer.shared"),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.gauge_value("hammer.gauge"), 0);
  for (int th = 0; th < kThreads; ++th) {
    EXPECT_EQ(reg.counter_value("hammer.thread." + std::to_string(th)),
              static_cast<std::uint64_t>(2) * kIters);
  }
}

TEST(ObsThreadSafety, ConcurrentDumpEqualsSingleThreadedDump) {
  // The same deterministic update sequence applied (a) single-threaded
  // and (b) split across threads must yield identical dumps — the
  // regression the metric goldens rely on once a second thread exists.
  obs::MetricsRegistry single;
  for (int i = 0; i < 4000; ++i) {
    single.counter("dump.c" + std::to_string(i % 4)).add(1);
  }
  obs::MetricsRegistry multi;
  std::vector<std::thread> threads;
  for (int th = 0; th < 4; ++th) {
    threads.emplace_back([&multi, th] {
      for (int i = 0; i < 1000; ++i) {
        multi.counter("dump.c" + std::to_string(th)).add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(single.counters().size(), multi.counters().size());
  auto a = single.counters().begin();
  auto b = multi.counters().begin();
  for (; a != single.counters().end(); ++a, ++b) {
    EXPECT_EQ(a->first, b->first);
    EXPECT_EQ(a->second.value(), b->second.value());
  }
}

}  // namespace
}  // namespace p2pfl::net::tcp
