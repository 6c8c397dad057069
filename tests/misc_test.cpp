// Edge cases for the support layers: parallel helpers, logging levels,
// timer mode switches, mux prefix subtleties.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

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

TEST(Parallel, FirstExceptionReachesCallerAfterEveryChunk) {
  set_parallel_workers(4);
  // 100 indices in chunks of 25: [0, 25) runs on the caller, the rest on
  // three threads. One index throws on the caller's chunk and one on a
  // worker's; the two chunks that do not throw must still run to the end
  // before the exception reaches the caller.
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

  // The caller left its chunk by an exception; a following call must
  // still start threads rather than run inline as a nested call would.
  std::mutex mu;
  std::set<std::thread::id> ids;
  parallel_for(0, 4, [&](std::size_t) {
    const std::lock_guard<std::mutex> lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GT(ids.size(), 1u);
  set_parallel_workers(0);  // restore the hardware default
}

TEST(Parallel, NestedCallRunsInlineOnItsThread) {
  set_parallel_workers(4);
  struct Call {
    std::thread::id outer, inner;
    std::size_t lo = 0, hi = 0;
    int calls = 0;
  };
  std::vector<Call> calls(4);
  parallel_for(0, calls.size(), [&](std::size_t task) {
    Call& c = calls[task];
    c.outer = std::this_thread::get_id();
    parallel_for_chunked(0, 1000, [&](std::size_t lo, std::size_t hi) {
      c.inner = std::this_thread::get_id();
      c.lo = lo;
      c.hi = hi;
      ++c.calls;
    });
  });
  for (const Call& c : calls) {
    EXPECT_EQ(c.calls, 1);
    EXPECT_EQ(c.lo, 0u);
    EXPECT_EQ(c.hi, 1000u);
    EXPECT_EQ(c.inner, c.outer);
  }
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
