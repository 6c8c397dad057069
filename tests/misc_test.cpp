// Edge cases for the support layers: parallel helpers, logging levels,
// timer mode switches, mux prefix subtleties.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/parallel.hpp"
#include "net/mux.hpp"
#include "net/sim_transport.hpp"

namespace p2pfl {
namespace {

net::Envelope make_env(PeerId from, PeerId to, std::string kind,
                       std::any body, std::uint64_t wire_bytes) {
  net::Envelope env;
  env.from = from;
  env.to = to;
  env.kind = std::move(kind);
  env.body = std::move(body);
  env.wire_bytes = wire_bytes;
  return env;
}

TEST(Parallel, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, EmptyAndSingleRanges) {
  int calls = 0;
  parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(7, 8, [&](std::size_t i) {
    ++calls;
    EXPECT_EQ(i, 7u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(Parallel, ChunkedPartitionIsDisjointAndComplete) {
  std::vector<std::atomic<int>> hits(503);  // prime, uneven chunks
  parallel_for_chunked(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, WorkerOverrideRoundTrips) {
  const std::size_t before = parallel_workers();
  set_parallel_workers(3);
  EXPECT_EQ(parallel_workers(), 3u);
  std::atomic<long> sum{0};
  parallel_for(0, 100, [&](std::size_t i) { sum += static_cast<long>(i); });
  EXPECT_EQ(sum.load(), 4950);
  set_parallel_workers(0);  // restore hardware default
  EXPECT_EQ(parallel_workers(), before == 0 ? parallel_workers() : before);
}

// Releases its waiters once `count` threads have arrived. A waiter gives
// up after `timeout` and reports false, so a test that needs threads to
// meet fails instead of hanging when they cannot.
class MeetingPoint {
 public:
  explicit MeetingPoint(std::size_t count) : count_(count) {}

  bool arrive_and_wait(std::chrono::milliseconds timeout =
                           std::chrono::milliseconds(5000)) {
    std::unique_lock<std::mutex> lock(mu_);
    if (++arrived_ >= count_) {
      cv_.notify_all();
      return true;
    }
    return cv_.wait_for(lock, timeout, [&] { return arrived_ >= count_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t count_;
  std::size_t arrived_ = 0;
};

TEST(Parallel, FirstExceptionReachesCallerAfterEveryChunk) {
  set_parallel_workers(4);
  // 100 indices in four chunks of 25. One index throws in the first chunk
  // and one in the third; the two chunks that do not throw must still run
  // to the end before the exception reaches the caller.
  std::atomic<int> finished{0};
  EXPECT_THROW(parallel_for(0, 100,
                            [&](std::size_t i) {
                              if (i == 10 || i == 60) {
                                throw std::logic_error("index " +
                                                       std::to_string(i));
                              }
                              if ((i >= 25 && i < 50) || i >= 75) ++finished;
                            }),
               std::logic_error);
  EXPECT_EQ(finished.load(), 50);

  // The caller may have left a chunk by the exception; the next call must
  // still be a top-level one. The resize to 1 worker and back stops the
  // pool's threads, and only a top-level call starts them again: a nested
  // call shares with idle workers only, so with none it would run inline
  // as one fn(0, 2) call, where index 0 waits for index 1 in vain.
  set_parallel_workers(1);
  set_parallel_workers(4);
  MeetingPoint both(2);
  std::atomic<int> met{0};
  parallel_for(0, 2, [&](std::size_t) {
    if (both.arrive_and_wait()) ++met;
  });
  EXPECT_EQ(met.load(), 2);
  set_parallel_workers(0);  // restore the hardware default
}

// With every worker holding an outer task, none is idle: a nested call
// runs inline as one fn(begin, end) call on its caller's thread. The outer
// tasks meet before their nested calls and again after them, so no worker
// goes idle while any nested call is made.
TEST(Parallel, NestedCallRunsInlineWhenNoWorkerIsIdle) {
  set_parallel_workers(4);
  struct Call {
    std::thread::id outer, inner;
    std::size_t lo = 0, hi = 0;
    int calls = 0;
    bool met = false;
  };
  std::vector<Call> calls(4);
  MeetingPoint all_busy(4), all_called(4);
  parallel_for(0, calls.size(), [&](std::size_t task) {
    Call& c = calls[task];
    c.outer = std::this_thread::get_id();
    c.met = all_busy.arrive_and_wait();
    parallel_for_chunked(0, 1000, [&](std::size_t lo, std::size_t hi) {
      c.inner = std::this_thread::get_id();
      c.lo = lo;
      c.hi = hi;
      ++c.calls;
    });
    c.met = all_called.arrive_and_wait() && c.met;
  });
  for (const Call& c : calls) {
    EXPECT_TRUE(c.met);
    EXPECT_EQ(c.calls, 1);
    EXPECT_EQ(c.lo, 0u);
    EXPECT_EQ(c.hi, 1000u);
    EXPECT_EQ(c.inner, c.outer);
  }
  set_parallel_workers(0);  // restore the hardware default
}

// Two outer tasks on four workers leave two idle, and a nested call shares
// its chunks with them: the nested call's two indices meet, which they
// cannot if they run one after the other on one thread. A worker that
// has just finished may not be waiting yet, so a task tries again after
// a missed meeting.
TEST(Parallel, NestedChunksReachIdleWorkers) {
  set_parallel_workers(4);
  MeetingPoint outer_met(2);
  std::atomic<int> outer_ok{0}, shared{0};
  parallel_for(0, 2, [&](std::size_t) {
    if (outer_met.arrive_and_wait()) ++outer_ok;
    for (int attempt = 0; attempt < 50; ++attempt) {
      MeetingPoint inner(2);
      std::atomic<bool> met{true};
      parallel_for(0, 2, [&](std::size_t) {
        if (!inner.arrive_and_wait(std::chrono::milliseconds(100))) {
          met = false;
        }
      });
      if (met) {
        ++shared;
        break;
      }
    }
  });
  EXPECT_EQ(outer_ok.load(), 2);
  EXPECT_EQ(shared.load(), 2);
  set_parallel_workers(0);  // restore the hardware default
}

// A thread waiting for the chunks of its nested call that others claimed
// starts no chunk of another call, so no thread holds two outer tasks at
// once, and no more outer tasks run at once than there are threads that
// may run them: the workers for one top-level caller, one more for two.
TEST(Parallel, WaitingThreadNeverStartsAnotherOuterTask) {
  set_parallel_workers(4);
  thread_local int held = 0;  // outer tasks this thread is inside
  std::atomic<int> running{0}, peak{0}, deepest{0};
  const auto outer = [&](std::size_t) {
    const int depth = ++held;
    int seen = deepest.load();
    while (depth > seen && !deepest.compare_exchange_weak(seen, depth)) {
    }
    const int now = ++running;
    seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    parallel_for_chunked(0, 8, [&](std::size_t lo, std::size_t hi) {
      std::this_thread::sleep_for(std::chrono::milliseconds(hi - lo));
    });
    --running;
    --held;
  };
  parallel_for(0, 12, outer);
  EXPECT_EQ(deepest.load(), 1);
  EXPECT_GE(peak.load(), 1);
  EXPECT_LE(peak.load(), 4);

  peak = 0;
  {
    std::vector<std::jthread> callers;
    for (int t = 0; t < 2; ++t) {
      callers.emplace_back([&] {
        for (int r = 0; r < 5; ++r) parallel_for(0, 6, outer);
      });
    }
  }
  EXPECT_EQ(deepest.load(), 1);
  EXPECT_LE(peak.load(), 5);
  set_parallel_workers(0);  // restore the hardware default
}

// Top-level calls made at once from three threads (as two TCP loop
// threads may) each cover their range exactly once, for ranges split
// into single indices and into contiguous chunks alike.
TEST(Parallel, ConcurrentTopLevelCallsEachCoverTheirRange) {
  set_parallel_workers(4);
  constexpr int kRepeats = 20;
  const std::vector<std::size_t> sizes = {10, 5003};
  std::vector<std::vector<std::atomic<int>>> hits;
  for (int t = 0; t < 3; ++t) hits.emplace_back(10 + 5003);
  {
    std::vector<std::jthread> callers;
    for (int t = 0; t < 3; ++t) {
      callers.emplace_back([&, t] {
        for (int r = 0; r < kRepeats; ++r) {
          std::size_t base = 0;
          for (std::size_t size : sizes) {
            parallel_for_chunked(
                0, size, [&](std::size_t lo, std::size_t hi) {
                  for (std::size_t i = lo; i < hi; ++i) hits[t][base + i]++;
                });
            base += size;
          }
        }
      });
    }
  }
  for (const auto& h : hits) {
    for (const auto& count : h) EXPECT_EQ(count.load(), kRepeats);
  }
  set_parallel_workers(0);  // restore the hardware default
}

// Four indices meet only when four threads run them at once.
bool four_threads_meet() {
  MeetingPoint four(4);
  std::atomic<int> met{0};
  parallel_for(0, 4, [&](std::size_t) {
    if (four.arrive_and_wait()) ++met;
  });
  return met.load() == 4;
}

TEST(Parallel, ResizesFromFourWorkersToOneAndBack) {
  set_parallel_workers(4);
  EXPECT_TRUE(four_threads_meet());

  set_parallel_workers(1);
  std::mutex mu;
  std::set<std::thread::id> ids;
  parallel_for(0, 100, [&](std::size_t) {
    const std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(ids, std::set<std::thread::id>{std::this_thread::get_id()});
  int calls = 0;
  parallel_for_chunked(0, 100, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 100u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);

  set_parallel_workers(4);
  EXPECT_TRUE(four_threads_meet());
  set_parallel_workers(0);  // restore the hardware default
}

// The pool's threads serve every call: 100 calls run on no more kernel
// threads than there are workers (a thread per call would show hundreds
// of thread ids).
TEST(Parallel, HundredCallsRunOnAtMostWorkersThreads) {
  set_parallel_workers(4);
  std::mutex mu;
  std::set<pid_t> tids;
  for (int call = 0; call < 100; ++call) {
    parallel_for_chunked(0, 64, [&](std::size_t, std::size_t) {
      const std::lock_guard<std::mutex> lock(mu);
      tids.insert(::gettid());
    });
  }
  EXPECT_GE(tids.size(), 1u);
  EXPECT_LE(tids.size(), 4u);
  set_parallel_workers(0);  // restore the hardware default
}

TEST(Log, LevelGatingAndRestore) {
  const LogLevel old_level = Log::level();
  Log::set_level(LogLevel::kError);
  EXPECT_FALSE(Log::enabled(LogLevel::kDebug));
  EXPECT_TRUE(Log::enabled(LogLevel::kError));
  Log::set_level(LogLevel::kOff);
  EXPECT_FALSE(Log::enabled(LogLevel::kError));
  // Streaming through a disabled level must not crash or emit.
  P2PFL_ERROR() << "suppressed " << 42;
  Log::set_level(old_level);
}

TEST(Timer, PeriodicThenOneShotSwitch) {
  sim::Simulator sim(1);
  net::SimTransport tr(sim);
  int fires = 0;
  net::Timer t(tr, [&] { ++fires; });
  t.arm_periodic(10);
  sim.run_until(25);  // fires at 10, 20
  EXPECT_EQ(fires, 2);
  t.arm(100);  // switch to one-shot, cancels the periodic chain
  sim.run_until(500);
  EXPECT_EQ(fires, 3);
}

TEST(Timer, CancelInsideOwnCallbackIsSafe) {
  sim::Simulator sim(1);
  net::SimTransport tr(sim);
  int fires = 0;
  net::Timer t(tr, [&] {
    ++fires;
    t.cancel();  // no pending event: must be a no-op
  });
  t.arm(5);
  sim.run();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(t.armed());
}

TEST(PeerHost, PrefixBoundaryMatching) {
  net::PeerHost host;
  std::vector<std::string> hits;
  host.route("agg", [&](const net::Envelope& e) { hits.push_back("agg:" + e.kind); });
  host.route("agg/upload", [&](const net::Envelope& e) {
    hits.push_back("up:" + e.kind);
  });
  host.deliver(make_env(0, 1, "agg/upload", {}, 0));   // longest wins
  host.deliver(make_env(0, 1, "agg/result", {}, 0));   // falls to "agg"
  host.deliver(make_env(0, 1, "aggregate", {}, 0));    // prefix "agg"
  host.deliver(make_env(0, 1, "ag", {}, 0));           // no match
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0], "up:agg/upload");
  EXPECT_EQ(hits[1], "agg:agg/result");
  EXPECT_EQ(hits[2], "agg:aggregate");
}

TEST(PeerHost, ReRouteReplacesHandler) {
  net::PeerHost host;
  int a = 0, b = 0;
  host.route("x/", [&](const net::Envelope&) { ++a; });
  host.route("x/", [&](const net::Envelope&) { ++b; });
  host.deliver(make_env(0, 1, "x/y", {}, 0));
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
}

}  // namespace
}  // namespace p2pfl
