// Whole-stack determinism: identical seeds must give bit-identical
// protocol histories — the property that makes every experiment in this
// repo replayable and every failure seed debuggable.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "core/fl_experiment.hpp"
#include "core/two_layer_raft.hpp"
#include "obs/export.hpp"

namespace p2pfl {
namespace {

struct RaftTrace {
  std::vector<std::tuple<SimTime, SubgroupId, PeerId>> sub_elections;
  std::vector<std::pair<SimTime, PeerId>> fed_elections;
  PeerId final_fed = kNoPeer;
  std::vector<PeerId> final_members;
};

RaftTrace run_raft_trace(std::uint64_t seed) {
  sim::Simulator sim(seed);
  net::Network net(sim, {.base_latency = 15 * kMillisecond});
  core::TwoLayerRaftOptions opts;
  opts.raft.election_timeout_min = 50 * kMillisecond;
  opts.raft.election_timeout_max = 100 * kMillisecond;
  core::TwoLayerRaftSystem sys(core::Topology::even(12, 4), opts, net);
  RaftTrace t;
  sys.on_subgroup_leader = [&](SubgroupId g, PeerId p) {
    t.sub_elections.emplace_back(sim.now(), g, p);
  };
  sys.on_fedavg_leader = [&](PeerId p) {
    t.fed_elections.emplace_back(sim.now(), p);
  };
  sys.start_all();
  sim.run_for(3 * kSecond);
  // Crash the FedAvg leader mid-way for extra nondeterminism surface.
  const PeerId fed = sys.fedavg_leader();
  if (fed != kNoPeer) sys.crash_peer(fed);
  sim.run_for(3 * kSecond);
  t.final_fed = sys.fedavg_leader();
  t.final_members = sys.fedavg_members();
  return t;
}

TEST(Determinism, TwoLayerRaftTimelineIsSeedExact) {
  const RaftTrace a = run_raft_trace(2024);
  const RaftTrace b = run_raft_trace(2024);
  EXPECT_EQ(a.sub_elections, b.sub_elections);
  EXPECT_EQ(a.fed_elections, b.fed_elections);
  EXPECT_EQ(a.final_fed, b.final_fed);
  EXPECT_EQ(a.final_members, b.final_members);
}

TEST(Determinism, DifferentSeedsGiveDifferentTimelines) {
  const RaftTrace a = run_raft_trace(1);
  const RaftTrace b = run_raft_trace(2);
  // Same topology, different randomized timeouts: the election
  // timestamps will differ even if the same peers happen to win.
  EXPECT_NE(a.sub_elections, b.sub_elections);
}

/// Serialized observability artifacts for one fully traced run of the
/// RaftTrace scenario: (metrics JSONL, Chrome trace JSON).
std::pair<std::string, std::string> run_golden_trace(std::uint64_t seed) {
  sim::Simulator sim(seed);
  sim.obs().trace.set_enabled(true);
  net::Network net(sim, {.base_latency = 15 * kMillisecond});
  core::TwoLayerRaftOptions opts;
  opts.raft.election_timeout_min = 50 * kMillisecond;
  opts.raft.election_timeout_max = 100 * kMillisecond;
  core::TwoLayerRaftSystem sys(core::Topology::even(12, 4), opts, net);
  sys.start_all();
  sim.run_for(3 * kSecond);
  const PeerId fed = sys.fedavg_leader();
  if (fed != kNoPeer) sys.crash_peer(fed);
  sim.run_for(3 * kSecond);
  return {obs::metrics_jsonl(sim.obs().metrics),
          obs::chrome_trace_json(sim.obs().trace)};
}

TEST(Determinism, GoldenTraceIsByteIdenticalAcrossRuns) {
  const auto a = run_golden_trace(4242);
  const auto b = run_golden_trace(4242);
  // Byte-for-byte: the trace embeds only virtual timestamps and the
  // export formats every number identically, so two runs with the same
  // seed must serialize to the same file content.
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  // The run actually recorded protocol activity on all layers.
  EXPECT_NE(a.second.find("\"cat\":\"net\""), std::string::npos);
  EXPECT_NE(a.second.find("\"cat\":\"raft\""), std::string::npos);
  EXPECT_NE(a.second.find("raft.leader_elected"), std::string::npos);
  EXPECT_NE(a.first.find("raft.elections_won"), std::string::npos);
}

TEST(Determinism, GoldenTraceDiffersAcrossSeeds) {
  const auto a = run_golden_trace(1);
  const auto b = run_golden_trace(2);
  EXPECT_NE(a.second, b.second);
}

/// FNV-1a 64-bit, used to pin serialized artifacts without embedding
/// the full byte stream in the test source.
std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Fixed-seed 2-subgroup scenario for the kernel event-order golden:
/// both Raft layers electing, heartbeating and recovering from a FedAvg
/// leader crash — every event class (election timers, heartbeats, link
/// deliveries) crosses the simulator queue.
std::pair<std::string, std::string> run_kernel_golden() {
  sim::Simulator sim(90210);
  sim.obs().trace.set_enabled(true);
  net::Network net(sim, {.base_latency = 15 * kMillisecond});
  core::TwoLayerRaftOptions opts;
  opts.raft.election_timeout_min = 50 * kMillisecond;
  opts.raft.election_timeout_max = 100 * kMillisecond;
  core::TwoLayerRaftSystem sys(core::Topology::even(10, 2), opts, net);
  sys.start_all();
  sim.run_for(3 * kSecond);
  const PeerId fed = sys.fedavg_leader();
  if (fed != kNoPeer) sys.crash_peer(fed);
  sim.run_for(3 * kSecond);
  return {obs::metrics_jsonl(sim.obs().metrics),
          obs::chrome_trace_json(sim.obs().trace)};
}

// Captured on the pre-refactor binary-heap + tombstone kernel (commit
// 3137914 lineage) before the pooled timer-wheel kernel replaced it.
// The swap must preserve the exact (time, insertion-seq) firing order,
// so this run's serialized metrics and trace must stay byte-identical.
inline constexpr std::size_t kGoldenMetricsLen = 4153;
inline constexpr std::uint64_t kGoldenMetricsHash = 6843579532486980710ull;
inline constexpr std::size_t kGoldenTraceLen = 1831580;
inline constexpr std::uint64_t kGoldenTraceHash = 5016380517358984212ull;

TEST(Determinism, KernelEventOrderMatchesPreWheelGolden) {
  const auto [metrics, trace] = run_kernel_golden();
  EXPECT_EQ(metrics.size(), kGoldenMetricsLen);
  EXPECT_EQ(fnv1a64(metrics), kGoldenMetricsHash);
  EXPECT_EQ(trace.size(), kGoldenTraceLen);
  EXPECT_EQ(fnv1a64(trace), kGoldenTraceHash);
}

// The peers of a round train concurrently and SAC streams on the
// parallel_for workers, so the same seed must give the same run at any
// worker count: one run on 1 worker, one on 4. Returns the first.
core::FlExperimentResult expect_fl_bit_exact_across_worker_counts(
    const core::FlExperimentConfig& cfg) {
  set_parallel_workers(1);
  const auto a = core::run_fl_experiment(cfg);
  set_parallel_workers(4);
  const auto b = core::run_fl_experiment(cfg);
  set_parallel_workers(0);  // restore the hardware default
  EXPECT_EQ(a.final_weights, b.final_weights);  // bit-identical weights
  EXPECT_EQ(a.subgroup_quorum_failures, b.subgroup_quorum_failures);
  EXPECT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < std::min(a.records.size(), b.records.size());
       ++i) {
    EXPECT_EQ(a.records[i].train_loss, b.records[i].train_loss);
    EXPECT_EQ(a.records[i].test_accuracy, b.records[i].test_accuracy);
    EXPECT_EQ(a.records[i].test_loss, b.records[i].test_loss);
  }
  return a;
}

TEST(Determinism, FlExperimentBitExactAcrossRuns) {
  core::FlExperimentConfig cfg;
  cfg.peers = 6;
  cfg.group_size = 3;
  cfg.rounds = 6;
  cfg.eval_every = 2;
  cfg.data.height = 8;
  cfg.data.width = 8;
  cfg.data.train_samples = 240;
  cfg.data.test_samples = 60;
  cfg.seed = 77;
  expect_fl_bit_exact_across_worker_counts(cfg);

  // k-of-n SAC with crashes after the share phase (some subgroups below
  // quorum), half the subgroups awaited, sample-weighted members.
  cfg.peers = 10;
  cfg.group_size = 5;
  cfg.sac_k = 3;
  cfg.dropout_after_share_prob = 0.5;
  cfg.fraction_p = 0.5;
  cfg.weight_by_samples = true;
  cfg.distribution = core::DataDistribution::kNonIid5;
  cfg.rounds = 8;
  EXPECT_GT(expect_fl_bit_exact_across_worker_counts(cfg)
                .subgroup_quorum_failures,
            0u);
}

// The math path's numbers, pinned: FNV-1a-64 of the final weights' bytes
// and every round's training loss and evaluated test loss, exactly, at 1,
// 3 and 4 workers (3 splits every range unevenly, and a worker left idle
// takes chunks of the kernels of the peers still training). A change that
// claims bit-exactness must leave them all as they are; the tests above
// only compare runs of one build with each other. The values were
// recorded before Model kept its parameters in one flat store.
struct FlGolden {
  std::uint64_t weights_hash;
  std::vector<double> train_loss;  // per round
  std::vector<double> test_loss;   // per evaluated round
};

void expect_fl_golden_at(const core::FlExperimentConfig& cfg,
                         const FlGolden& want) {
  const core::FlExperimentResult r = core::run_fl_experiment(cfg);
  FlGolden got;
  got.weights_hash = fnv1a64(
      std::string(reinterpret_cast<const char*>(r.final_weights.data()),
                  r.final_weights.size() * sizeof(float)));
  for (const core::RoundRecord& rec : r.records) {
    got.train_loss.push_back(rec.train_loss);
    if (rec.test_loss.has_value()) got.test_loss.push_back(*rec.test_loss);
  }
  std::ostringstream print;
  print << std::hexfloat << "{0x" << std::hex << got.weights_hash << "ull,\n {";
  for (double v : got.train_loss) print << v << ", ";
  print << "},\n {";
  for (double v : got.test_loss) print << v << ", ";
  print << "}}";
  EXPECT_EQ(got.weights_hash, want.weights_hash) << print.str();
  EXPECT_EQ(got.train_loss, want.train_loss) << print.str();
  EXPECT_EQ(got.test_loss, want.test_loss) << print.str();
}

void expect_fl_golden(const core::FlExperimentConfig& cfg,
                      const FlGolden& want) {
  for (std::size_t workers : {1u, 3u, 4u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    set_parallel_workers(workers);
    expect_fl_golden_at(cfg, want);
  }
  set_parallel_workers(0);  // restore the hardware default
}

// The Fig. 5 CNN on 8x8 images (142k parameters): four peers in two
// subgroups, two rounds at batch 4.
TEST(Determinism, FlExperimentPaperCnnMatchesGolden) {
  core::FlExperimentConfig cfg;
  cfg.peers = 4;
  cfg.group_size = 2;
  cfg.rounds = 2;
  cfg.eval_every = 1;
  cfg.model = core::ModelKind::kPaperCnn;
  cfg.data = fl::cifar10_like();
  cfg.data.height = 8;
  cfg.data.width = 8;
  cfg.data.train_samples = 24;
  cfg.data.test_samples = 20;
  cfg.train.batch_size = 4;
  cfg.seed = 701;
  expect_fl_golden(cfg, {0x0b01ba7c86dc1682ull,
                         {0x1.043aaca912099p+4, 0x1.3c162c649cddep+4},
                         {0x1.49e10c91e70d7p+3, 0x1.33fe0f9fca5f2p+3}});
}

// The second configuration of FlExperimentBitExactAcrossRuns: k-of-n SAC
// with crashes after the share phase, half the subgroups awaited,
// sample-weighted members, non-IID shards.
TEST(Determinism, FlExperimentMlpKOfNMatchesGolden) {
  core::FlExperimentConfig cfg;
  cfg.peers = 10;
  cfg.group_size = 5;
  cfg.rounds = 8;
  cfg.eval_every = 2;
  cfg.data.height = 8;
  cfg.data.width = 8;
  cfg.data.train_samples = 240;
  cfg.data.test_samples = 60;
  cfg.seed = 77;
  cfg.sac_k = 3;
  cfg.dropout_after_share_prob = 0.5;
  cfg.fraction_p = 0.5;
  cfg.weight_by_samples = true;
  cfg.distribution = core::DataDistribution::kNonIid5;
  expect_fl_golden(
      cfg, {0x80a9b7e1640224d8ull,
            {0x1.a2a463f61c318p+1, 0x1.a1c70becd6adbp+1, 0x1.a0ea08bb10e15p+1,
             0x1.a00d97c94a0dep+1, 0x1.9f3187d4b4cfdp+1, 0x1.9f3187d4b4cfdp+1,
             0x1.9e55bc29a3af6p+1, 0x1.9d7a8df0c66fp+1},
            {0x1.c5e241bf841f4p+1, 0x1.c4b0f82d95bb9p+1, 0x1.c4189f466d5c4p+1,
             0x1.c2e8b8b4527c1p+1}});
}

TEST(Determinism, FlExperimentSeedChangesWeights) {
  core::FlExperimentConfig cfg;
  cfg.peers = 4;
  cfg.group_size = 2;
  cfg.rounds = 3;
  cfg.data.height = 8;
  cfg.data.width = 8;
  cfg.data.train_samples = 120;
  cfg.data.test_samples = 40;
  cfg.seed = 1;
  const auto a = core::run_fl_experiment(cfg);
  cfg.seed = 2;
  const auto b = core::run_fl_experiment(cfg);
  EXPECT_NE(a.final_weights, b.final_weights);
}

}  // namespace
}  // namespace p2pfl
