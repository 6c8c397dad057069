// Tests for the causal span layer: SpanRecorder mechanics (stack
// adoption, flight-recorder ring, per-round cap), the critical-path
// extractor on hand-built DAGs, and the end-to-end invariants over real
// aggregation rounds — every opened span closes by round end, parents
// resolve within the round, and the phase attribution sums *exactly* to
// the measured round latency, fault-free and under a ChaosPlan.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chaos/engine.hpp"
#include "chaos/plan.hpp"
#include "chaos/soak.hpp"
#include "core/topology.hpp"
#include "core/two_layer_agg.hpp"
#include "net/network.hpp"
#include "obs/critical_path.hpp"
#include "obs/span.hpp"
#include "sim/simulator.hpp"

namespace p2pfl::obs {
namespace {

// --- SpanRecorder unit tests ------------------------------------------------

TEST(SpanRecorder, DisabledRecordsNothing) {
  SimTime clock = 0;
  SpanRecorder rec(&clock);
  EXPECT_EQ(rec.open(SpanKind::kRound, "r", 0, 1), kNoSpan);
  rec.close(42);          // unknown ids are ignored
  rec.close_aborted(42);  // likewise
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.current(), kNoSpan);
}

TEST(SpanRecorder, AdoptsCurrentSpanAsParent) {
  SimTime clock = 0;
  SpanRecorder rec(&clock);
  rec.set_enabled(true);
  const SpanId a = rec.open(SpanKind::kRound, "r", 0, 1);
  rec.push(a);
  const SpanId b = rec.open(SpanKind::kFedCollect, "c", 0, 1);  // adopts a
  const SpanId c = rec.open(SpanKind::kLink, "l", 0, 1, b);     // explicit
  rec.pop();
  ASSERT_NE(a, kNoSpan);
  EXPECT_EQ(rec.find(b)->parent, a);
  EXPECT_EQ(rec.find(c)->parent, b);
  // The context travels with the stack for Envelope stamping.
  rec.push(c);
  EXPECT_EQ(rec.current_ctx().span, c);
  EXPECT_EQ(rec.current_ctx().round, 1u);
  rec.pop();
  EXPECT_EQ(rec.current_ctx().span, kNoSpan);
}

TEST(SpanRecorder, CloseRecordsCloserAndIgnoresSelfAndDoubleClose) {
  SimTime clock = 0;
  SpanRecorder rec(&clock);
  rec.set_enabled(true);
  const SpanId wait = rec.open(SpanKind::kFedCollect, "c", 0, 1);
  const SpanId link = rec.open(SpanKind::kLink, "l", 1, 1);
  clock = 30;
  rec.close(link);
  rec.close(wait, wait);  // self-closer must be dropped, not recorded
  EXPECT_EQ(rec.find(wait)->closed_by, kNoSpan);
  EXPECT_EQ(rec.find(wait)->end, 30);
  EXPECT_FALSE(rec.find(wait)->open);
  clock = 99;
  rec.close(wait, link);  // already closed: no-op
  EXPECT_EQ(rec.find(wait)->end, 30);
  EXPECT_EQ(rec.find(wait)->closed_by, kNoSpan);
  // close_aborted marks the flag and keeps the close time.
  const SpanId dead = rec.open(SpanKind::kUpload, "u", 2, 1);
  clock = 120;
  rec.close_aborted(dead);
  EXPECT_TRUE(rec.find(dead)->aborted);
  EXPECT_EQ(rec.find(dead)->end, 120);
}

TEST(SpanRecorder, RingEvictsOldestRoundsButKeepsAmbientBucket) {
  SimTime clock = 0;
  SpanRecorder rec(&clock);
  rec.set_enabled(true);
  rec.set_max_rounds(2);
  const SpanId ambient = rec.open(SpanKind::kRaftReplicate, "raft", 0, 0);
  std::vector<SpanId> per_round;
  for (std::uint64_t r = 1; r <= 4; ++r) {
    per_round.push_back(rec.open(SpanKind::kRound, "r", 0, r));
  }
  // Newest two rounds retained, plus round 0 which is exempt.
  EXPECT_EQ(rec.rounds(), (std::vector<std::uint64_t>{0, 3, 4}));
  EXPECT_EQ(rec.evicted_rounds(), 2u);
  EXPECT_NE(rec.find(ambient), nullptr);
  EXPECT_EQ(rec.find(per_round[0]), nullptr);  // round 1 evicted
  EXPECT_EQ(rec.find(per_round[1]), nullptr);  // round 2 evicted
  EXPECT_NE(rec.find(per_round[2]), nullptr);
  EXPECT_NE(rec.find(per_round[3]), nullptr);
}

TEST(SpanRecorder, PerRoundCapCountsDroppedSpans) {
  SimTime clock = 0;
  SpanRecorder rec(&clock);
  rec.set_enabled(true);
  rec.set_max_spans_per_round(3);
  for (int i = 0; i < 5; ++i) {
    const SpanId s = rec.open(SpanKind::kLink, "l", 0, 1);
    if (i < 3) {
      EXPECT_NE(s, kNoSpan);
    } else {
      EXPECT_EQ(s, kNoSpan);
    }
  }
  EXPECT_EQ(rec.round_spans(1)->size(), 3u);
  EXPECT_EQ(rec.dropped_spans(), 2u);
}

// --- critical path on a hand-built DAG -------------------------------------

TEST(CriticalPath, HandBuiltDagTilesExactly) {
  // round[0..32] <- merge[30..32] <- link2[15..30] <- (hop via closed_by)
  // link1[0..15]; the share phase span overlaps link1 but the walk hops
  // through the closer, attributing the wire time to the wire.
  SimTime clock = 0;
  SpanRecorder rec(&clock);
  rec.set_enabled(true);
  const SpanId round = rec.open(SpanKind::kRound, "agg/round", 0, 1);
  const SpanId share =
      rec.open(SpanKind::kSacShare, "sac/sg0/share_phase", 1, 1, round);
  const SpanId link1 =
      rec.open(SpanKind::kLink, "sac/sg0/share", 1, 1, share);
  clock = 15;
  rec.close(link1);
  rec.close(share, link1);
  const SpanId link2 = rec.open(SpanKind::kLink, "agg/upload", 1, 1, share);
  clock = 30;
  rec.close(link2);
  const SpanId merge = rec.open(SpanKind::kFedMerge, "agg/merge", 0, 1, link2);
  clock = 32;
  rec.close(merge);
  rec.close(round, merge);

  const CriticalPath cp = extract_critical_path(rec, 1);
  ASSERT_TRUE(cp.found);
  EXPECT_TRUE(cp.complete);
  EXPECT_EQ(cp.total(), 32);
  ASSERT_EQ(cp.segments.size(), 3u);
  EXPECT_EQ(cp.segments[0].phase, "link:sac/sg*/share");
  EXPECT_EQ(cp.segments[0].start, 0);
  EXPECT_EQ(cp.segments[0].end, 15);
  EXPECT_EQ(cp.segments[1].phase, "link:agg/upload");
  EXPECT_EQ(cp.segments[1].end, 30);
  EXPECT_EQ(cp.segments[2].phase, "fed_merge");
  EXPECT_EQ(cp.segments[2].end, 32);
  SimDuration phase_sum = 0;
  for (const auto& [phase, d] : cp.phase_totals) phase_sum += d;
  EXPECT_EQ(phase_sum, cp.total());
  // The rendered table certifies the exact sum.
  EXPECT_NE(critical_path_table(cp).find("(= round latency)"),
            std::string::npos);
}

TEST(CriticalPath, CausalGapBecomesExplicitUnattributedPhase) {
  SimTime clock = 0;
  SpanRecorder rec(&clock);
  rec.set_enabled(true);
  const SpanId round = rec.open(SpanKind::kRound, "agg/round", 0, 1);
  clock = 10;
  // A parentless closer starting at t=10 leaves [0,10] causally
  // unexplained: it must be attributed explicitly, never dropped.
  const SpanId merge = rec.open(SpanKind::kFedMerge, "agg/merge", 0, 1, 0);
  clock = 20;
  rec.close(merge);
  rec.close(round, merge);
  const CriticalPath cp = extract_critical_path(rec, 1);
  ASSERT_TRUE(cp.found);
  EXPECT_FALSE(cp.complete);
  EXPECT_EQ(cp.total(), 20);
  ASSERT_EQ(cp.segments.size(), 2u);
  EXPECT_EQ(cp.segments[0].phase, "(unattributed)");
  EXPECT_EQ(cp.segments[0].end, 10);
  SimDuration phase_sum = 0;
  for (const auto& [phase, d] : cp.phase_totals) phase_sum += d;
  EXPECT_EQ(phase_sum, cp.total());
}

TEST(CriticalPath, AbortedOrMissingRoundIsNotFound) {
  SimTime clock = 0;
  SpanRecorder rec(&clock);
  rec.set_enabled(true);
  EXPECT_FALSE(extract_critical_path(rec, 1).found);
  const SpanId round = rec.open(SpanKind::kRound, "agg/round", 0, 2);
  clock = 5;
  rec.close_aborted(round);
  EXPECT_FALSE(extract_critical_path(rec, 2).found);
}

// --- end-to-end invariants over real aggregation rounds ---------------------

struct RoundFixture {
  explicit RoundFixture(std::uint64_t seed, net::LinkFaults faults = {})
      : sim(seed), net(sim, make_cfg(faults)), topo(core::Topology::even(6, 2)) {
    sim.obs().spans.set_enabled(true);
    core::AggregationConfig cfg;
    cfg.collect_timeout = 1 * kSecond;
    cfg.sac_share_timeout = 150 * kMillisecond;
    cfg.sac_subtotal_timeout = 150 * kMillisecond;
    cfg.upload_retry = 300 * kMillisecond;
    agg = std::make_unique<core::TwoLayerAggregator>(topo, cfg, net);
    agg->on_global_model = [this](std::uint64_t r, const secagg::Vector&,
                                  std::size_t) { committed_at[r] = sim.now(); };
  }

  static net::NetworkConfig make_cfg(const net::LinkFaults& faults) {
    net::NetworkConfig cfg{.base_latency = 15 * kMillisecond};
    cfg.faults = faults;
    return cfg;
  }

  /// Runs rounds 1..n back to back, then tears down any undecided round.
  void run_rounds(std::uint64_t n) {
    for (std::uint64_t r = 1; r <= n; ++r) {
      started_at[r] = sim.now();
      agg->begin_round(r, core::RoundLeadership::designated(topo),
                       [](PeerId id) {
                         return secagg::Vector(4, static_cast<float>(id + 1));
                       });
      sim.run_for(2 * kSecond);
    }
    agg->abort_round();
  }

  sim::Simulator sim;
  net::Network net;
  core::Topology topo;
  std::unique_ptr<core::TwoLayerAggregator> agg;
  std::map<std::uint64_t, SimTime> started_at;
  std::map<std::uint64_t, SimTime> committed_at;
};

void check_span_invariants(const SpanRecorder& rec) {
  ASSERT_GT(rec.size(), 0u);
  for (const auto& [id, s] : rec.all()) {
    // Every opened span was closed by round teardown.
    EXPECT_FALSE(s.open) << "span #" << id << " (" << s.name
                         << ") never closed";
    EXPECT_LE(s.start, s.end) << "span #" << id;
    // Parents resolve, and within the same round (or the ambient bucket).
    if (s.parent != kNoSpan) {
      const SpanRecord* p = rec.find(s.parent);
      ASSERT_NE(p, nullptr) << "span #" << id << " parent dangles";
      EXPECT_TRUE(p->round == s.round || p->round == 0)
          << "span #" << id << " parent crosses rounds";
      EXPECT_LE(p->start, s.start) << "span #" << id;
    }
    if (s.closed_by != kNoSpan) {
      EXPECT_NE(s.closed_by, id) << "span #" << id << " closed by itself";
      EXPECT_NE(rec.find(s.closed_by), nullptr)
          << "span #" << id << " closer dangles";
    }
  }
}

void check_exact_attribution(const SpanRecorder& rec, std::uint64_t round,
                             SimTime started, SimTime committed) {
  const CriticalPath cp = extract_critical_path(rec, round);
  ASSERT_TRUE(cp.found) << "round " << round;
  EXPECT_EQ(cp.start, started) << "round " << round;
  EXPECT_EQ(cp.end, committed) << "round " << round;
  // The tiles are chronological, gap-free, and sum to the latency.
  ASSERT_FALSE(cp.segments.empty());
  EXPECT_EQ(cp.segments.front().start, cp.start);
  EXPECT_EQ(cp.segments.back().end, cp.end);
  for (std::size_t i = 1; i < cp.segments.size(); ++i) {
    EXPECT_EQ(cp.segments[i].start, cp.segments[i - 1].end)
        << "round " << round << " segment " << i;
  }
  SimDuration seg_sum = 0;
  for (const auto& seg : cp.segments) seg_sum += seg.end - seg.start;
  EXPECT_EQ(seg_sum, committed - started) << "round " << round;
  SimDuration phase_sum = 0;
  for (const auto& [phase, d] : cp.phase_totals) phase_sum += d;
  EXPECT_EQ(phase_sum, committed - started) << "round " << round;
}

TEST(SpanInvariants, FaultFreeRoundsAcrossSeeds) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    RoundFixture f(seed);
    f.run_rounds(2);
    ASSERT_EQ(f.committed_at.size(), 2u) << "seed " << seed;
    check_span_invariants(f.sim.obs().spans);
    for (const auto& [r, at] : f.committed_at) {
      check_exact_attribution(f.sim.obs().spans, r, f.started_at[r], at);
    }
  }
}

TEST(SpanInvariants, HoldUnderChaosPlanAndAmbientFaults) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    net::LinkFaults faults;
    faults.drop_prob = 0.1;
    faults.duplicate_prob = 0.1;
    RoundFixture f(seed, faults);
    // ChaosPlan: a follower dies mid share phase (in-flight messages to
    // it abort their link spans) and returns for the next round.
    chaos::ChaosPlan plan;
    plan.crash_at(40 * kMillisecond, 4);
    plan.restart_at(1500 * kMillisecond, 4);
    chaos::ChaosEngine engine(f.net, std::move(plan));
    engine.start();
    f.run_rounds(2);
    check_span_invariants(f.sim.obs().spans);
    for (const auto& [r, at] : f.committed_at) {
      check_exact_attribution(f.sim.obs().spans, r, f.started_at[r], at);
    }
  }
}

// --- determinism + flight recorder over the soak harness --------------------

chaos::ChaosSoakConfig span_soak_config(std::uint64_t seed) {
  chaos::ChaosSoakConfig cfg;
  cfg.peers = 6;
  cfg.groups = 2;
  cfg.rounds = 4;
  cfg.dim = 4;
  cfg.seed = seed;
  cfg.round_interval = 1 * kSecond;
  cfg.capture_spans = true;
  return cfg;
}

TEST(SpanDeterminism, FaultFreeTwoSubgroupRoundIsByteIdentical) {
  const chaos::ChaosSoakConfig cfg = span_soak_config(11);
  const chaos::ChaosSoakResult a = run_chaos_soak(cfg);
  const chaos::ChaosSoakResult b = run_chaos_soak(cfg);
  ASSERT_FALSE(a.spans_jsonl.empty());
  EXPECT_EQ(a.spans_jsonl, b.spans_jsonl);
  ASSERT_EQ(a.critical_paths.size(), b.critical_paths.size());
  ASSERT_GT(a.critical_paths.size(), 0u);
  for (std::size_t i = 0; i < a.critical_paths.size(); ++i) {
    EXPECT_EQ(critical_path_table(a.critical_paths[i]),
              critical_path_table(b.critical_paths[i]));
    SimDuration phase_sum = 0;
    for (const auto& [phase, d] : a.critical_paths[i].phase_totals) {
      phase_sum += d;
    }
    EXPECT_EQ(phase_sum, a.critical_paths[i].total());
  }
}

TEST(SpanDeterminism, LeaderCrashRoundIsByteIdenticalAndSumsExactly) {
  // Churn crashes leaders too (the soak re-derives leadership from
  // liveness each round); attribution of the surviving commits must stay
  // exact and reproducible.
  chaos::ChaosSoakConfig cfg = span_soak_config(7);
  cfg.rounds = 6;
  cfg.net.faults.drop_prob = 0.05;
  cfg.churn_mttf = 2 * kSecond;
  cfg.churn_mttr = 700 * kMillisecond;
  const chaos::ChaosSoakResult a = run_chaos_soak(cfg);
  const chaos::ChaosSoakResult b = run_chaos_soak(cfg);
  EXPECT_GT(a.crashes, 0u);
  ASSERT_FALSE(a.spans_jsonl.empty());
  EXPECT_EQ(a.spans_jsonl, b.spans_jsonl);
  ASSERT_EQ(a.critical_paths.size(), b.critical_paths.size());
  ASSERT_GT(a.critical_paths.size(), 0u);
  for (std::size_t i = 0; i < a.critical_paths.size(); ++i) {
    EXPECT_EQ(critical_path_table(a.critical_paths[i]),
              critical_path_table(b.critical_paths[i]));
    SimDuration phase_sum = 0;
    for (const auto& [phase, d] : a.critical_paths[i].phase_totals) {
      phase_sum += d;
    }
    EXPECT_EQ(phase_sum, a.critical_paths[i].total());
  }
}

TEST(FlightRecorder, AbortedChaosRoundEmitsPostmortem) {
  // Heavy loss + churn: some round must abort, and the flight recorder
  // dumps its retained spans (unfinished work first) the moment
  // on_round_aborted fires.
  chaos::ChaosSoakConfig cfg;
  cfg.peers = 12;
  cfg.groups = 3;
  cfg.rounds = 8;
  cfg.dim = 4;
  cfg.seed = 5;
  cfg.round_interval = 2 * kSecond;
  cfg.capture_spans = true;
  cfg.net.faults.drop_prob = 0.3;
  cfg.churn_mttf = 400 * kMillisecond;
  cfg.churn_mttr = 3 * kSecond;
  const chaos::ChaosSoakResult res = run_chaos_soak(cfg);
  ASSERT_GT(res.rounds_aborted, 0u);
  ASSERT_FALSE(res.postmortems.empty());
  for (const auto& pm : res.postmortems) {
    EXPECT_GT(pm.round, 0u);
    EXPECT_FALSE(pm.jsonl.empty()) << "round " << pm.round;
    EXPECT_NE(pm.table.find("post-mortem"), std::string::npos)
        << "round " << pm.round;
  }
}

}  // namespace
}  // namespace p2pfl::obs
