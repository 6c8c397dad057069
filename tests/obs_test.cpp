// Tests for the observability layer: metrics registry semantics,
// histogram quantiles against a sorted-sample oracle, and deterministic
// serialization of metric dumps and trace streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace p2pfl::obs {
namespace {

TEST(MetricsRegistry, CountersAreNamedAndStable) {
  MetricsRegistry reg;
  Counter& c = reg.counter("a.count");
  c.add();
  c.add(4);
  EXPECT_EQ(reg.counter("a.count").value(), 5u);
  // The reference returned earlier must survive later insertions.
  for (int i = 0; i < 100; ++i) reg.counter("fill." + std::to_string(i));
  c.add(1);
  EXPECT_EQ(reg.counter("a.count").value(), 6u);
  c.reset();
  EXPECT_EQ(reg.counter("a.count").value(), 0u);
}

TEST(MetricsRegistry, GaugesGoUpAndDown) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("leaders");
  g.add(2);
  g.add(-3);
  EXPECT_EQ(g.value(), -1);
  g.set(7);
  EXPECT_EQ(reg.gauge("leaders").value(), 7);
}

TEST(MetricsRegistry, NeverSetGaugeAppearsInDumpLikeCounters) {
  MetricsRegistry reg;
  reg.counter("registered.counter");
  reg.gauge("registered.gauge");  // registered but never set
  const std::string dump = metrics_jsonl(reg);
  // Registration alone must surface both metric kinds at value 0 —
  // a gauge nobody set yet is "0", not "absent" (dump shape stays
  // stable whether or not the code path that sets it ever ran).
  EXPECT_NE(dump.find("\"registered.counter\""), std::string::npos);
  EXPECT_NE(dump.find("\"registered.gauge\""), std::string::npos);
  EXPECT_NE(dump.find("\"value\":0"), std::string::npos);
}

TEST(MetricsRegistry, ReadOnlyLookupsNeverRegister) {
  MetricsRegistry reg;
  reg.counter("real.counter").add(3);
  reg.gauge("real.gauge").set(-2);
  const std::string before = metrics_jsonl(reg);
  // Observers (watchdog snapshots, CLI report loops) read through the
  // const lookups; absent names answer 0 without materializing.
  EXPECT_EQ(reg.counter_value("real.counter"), 3u);
  EXPECT_EQ(reg.gauge_value("real.gauge"), -2);
  EXPECT_EQ(reg.counter_value("phantom.counter"), 0u);
  EXPECT_EQ(reg.gauge_value("phantom.gauge"), 0);
  EXPECT_EQ(metrics_jsonl(reg), before);
}

TEST(MetricsRegistry, GaugeResetReturnsToZero) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("resettable");
  g.set(41);
  g.add(1);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(MetricsRegistry, HistogramBoundsFixedOnFirstUse) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", Histogram::linear_bounds(0, 10, 5));
  EXPECT_EQ(h.bounds().size(), 5u);
  // Later lookups with different bounds return the original histogram.
  Histogram& h2 = reg.histogram("lat", Histogram::linear_bounds(0, 1, 2));
  EXPECT_EQ(&h, &h2);
  EXPECT_EQ(h2.bounds().size(), 5u);
}

TEST(Histogram, BasicAccounting) {
  Histogram h(Histogram::linear_bounds(10, 10, 3));  // 10, 20, 30
  h.record(5);
  h.record(15);
  h.record(25);
  h.record(99);  // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 144.0);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 99.0);
  EXPECT_DOUBLE_EQ(h.mean(), 36.0);
  ASSERT_EQ(h.bucket_counts().size(), 4u);
  EXPECT_EQ(h.bucket_counts()[0], 1u);
  EXPECT_EQ(h.bucket_counts()[1], 1u);
  EXPECT_EQ(h.bucket_counts()[2], 1u);
  EXPECT_EQ(h.bucket_counts()[3], 1u);
}

TEST(Histogram, EmptyQuantileIsZero) {
  Histogram h(Histogram::linear_bounds(0, 1, 4));
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
}

TEST(Histogram, SingleSampleQuantilesAreExact) {
  Histogram h(Histogram::linear_bounds(0, 10, 4));
  h.record(17.5);
  for (double q : {0.0, 0.25, 0.5, 0.9, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 17.5) << "q=" << q;
  }
}

TEST(Histogram, AllEqualSamplesQuantilesAreExact) {
  Histogram h(Histogram::exponential_bounds(1, 2, 10));
  for (int i = 0; i < 1000; ++i) h.record(42.0);
  for (double q : {0.0, 0.01, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 42.0) << "q=" << q;
  }
}

TEST(Histogram, ExtremesMatchObservedMinMax) {
  Histogram h(Histogram::linear_bounds(0, 5, 10));
  Rng rng(11);
  for (int i = 0; i < 500; ++i) h.record(rng.uniform(0.0, 45.0));
  EXPECT_DOUBLE_EQ(h.quantile(0.0), h.min());
  EXPECT_DOUBLE_EQ(h.quantile(1.0), h.max());
}

// Property test: with uniform bucket width w and samples inside the
// bounded range, every quantile estimate is within one bucket width of
// the nearest-rank order statistic of the sorted samples (the clamp and
// the in-bucket interpolation can each only move the estimate inside
// the bucket containing that order statistic).
TEST(Histogram, QuantileTracksSortedSampleOracle) {
  const double kWidth = 10.0;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Histogram h(Histogram::linear_bounds(kWidth, kWidth, 20));  // 10..200
    Rng rng(seed);
    std::vector<double> samples;
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 400));
    for (int i = 0; i < n; ++i) {
      const double v = rng.uniform(0.0, 200.0);
      samples.push_back(v);
      h.record(v);
    }
    std::sort(samples.begin(), samples.end());
    for (double q = 0.0; q <= 1.0; q += 0.05) {
      const auto rank = static_cast<std::size_t>(
          q * static_cast<double>(samples.size() - 1));
      const double oracle = samples[std::min(rank, samples.size() - 1)];
      EXPECT_NEAR(h.quantile(q), oracle, kWidth)
          << "seed=" << seed << " n=" << n << " q=" << q;
    }
  }
}

TEST(TraceStream, RespectsEnableAndCategories) {
  SimTime clock = 0;
  TraceStream tr(&clock);
  tr.instant("net", "off", 1);  // disabled: dropped silently
  EXPECT_EQ(tr.size(), 0u);
  tr.set_enabled(true);
  EXPECT_TRUE(tr.category_enabled("net"));
  tr.enable_category("raft");
  EXPECT_FALSE(tr.category_enabled("net"));
  clock = 123;
  tr.instant("net", "filtered", 1);
  tr.instant("raft", "kept", 2, {{"term", 7}});
  ASSERT_EQ(tr.size(), 1u);
  EXPECT_EQ(tr.events()[0].name, "kept");
  EXPECT_EQ(tr.events()[0].ts, 123);
  EXPECT_EQ(tr.events()[0].tid, 2u);
  ASSERT_EQ(tr.events()[0].args.size(), 1u);
  EXPECT_EQ(tr.events()[0].args[0].second.json, "7");
}

TEST(TraceStream, CapacityCapCountsDrops) {
  SimTime clock = 0;
  TraceStream tr(&clock);
  tr.set_enabled(true);
  tr.set_capacity(3);
  for (int i = 0; i < 10; ++i) {
    clock = i;
    std::string name = "e";
    name += std::to_string(i);
    tr.instant("sim", name, 0);
  }
  // Ring semantics: the cap evicts the *oldest* events, so the stream
  // always holds the newest `capacity` in arrival order.
  ASSERT_EQ(tr.size(), 3u);
  EXPECT_EQ(tr.dropped(), 7u);
  EXPECT_EQ(tr.events()[0].name, "e7");
  EXPECT_EQ(tr.events()[1].name, "e8");
  EXPECT_EQ(tr.events()[2].name, "e9");
  EXPECT_EQ(tr.events()[0].ts, 7);
  // The exporter surfaces the loss: a trace.dropped_events instant is
  // present exactly when events were evicted.
  EXPECT_NE(chrome_trace_json(tr).find("trace.dropped_events"),
            std::string::npos);
  tr.clear();
  EXPECT_EQ(tr.size(), 0u);
  EXPECT_EQ(tr.dropped(), 0u);
  tr.instant("sim", "fresh", 0);
  EXPECT_EQ(chrome_trace_json(tr).find("trace.dropped_events"),
            std::string::npos);
}

TEST(Export, JsonQuoteEscapes) {
  EXPECT_EQ(json_quote("plain"), "\"plain\"");
  EXPECT_EQ(json_quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(json_quote("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
}

TEST(Export, MetricsJsonlListsEveryMetricOnce) {
  MetricsRegistry reg;
  reg.counter("z.last").add(3);
  reg.counter("a.first").add(1);
  reg.gauge("mid").set(-4);
  reg.histogram("h", Histogram::linear_bounds(1, 1, 2)).record(1.5);
  const std::string out = metrics_jsonl(reg);
  // Lexical name order within each metric family.
  const auto a = out.find("\"a.first\"");
  const auto z = out.find("\"z.last\"");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, z);
  EXPECT_NE(out.find("\"type\":\"gauge\",\"name\":\"mid\",\"value\":-4"),
            std::string::npos);
  EXPECT_NE(out.find("\"type\":\"histogram\",\"name\":\"h\""),
            std::string::npos);
  EXPECT_NE(out.find("\"le\":\"inf\""), std::string::npos);
  // One line per metric, each a complete object.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Export, SerializationIsDeterministic) {
  auto build = [] {
    MetricsRegistry reg;
    reg.counter("c").add(2);
    reg.gauge("g").set(5);
    reg.histogram("h", Histogram::exponential_bounds(1, 10, 3)).record(25);
    SimTime clock = 42;
    TraceStream tr(&clock);
    tr.set_enabled(true);
    tr.instant("raft", "elected", 3, {{"term", 2}, {"frac", 0.25}});
    return std::make_pair(metrics_jsonl(reg), chrome_trace_json(tr));
  };
  const auto first = build();
  const auto second = build();
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
  // The trace document is structurally what about://tracing expects.
  EXPECT_EQ(first.second.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
            0u);
  EXPECT_NE(first.second.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(first.second.find("\"ts\":42"), std::string::npos);
}

}  // namespace
}  // namespace p2pfl::obs
