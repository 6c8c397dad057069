// Cross-backend equivalence: the same protocol code run over the
// deterministic simulator and over real loopback TCP must charge the
// exact same per-kind byte accounting — and both must equal the paper's
// closed forms (Eq. (4)/(5)). This is the cross-validation the TCP
// backend exists for: the simulator's cost experiments are trustworthy
// because a real-socket run reproduces their counters bit-for-bit.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "analysis/cost_model.hpp"
#include "chaos/soak.hpp"
#include "core/topology.hpp"
#include "fixed_leader_round.hpp"
#include "net/backend.hpp"
#include "net/network.hpp"

namespace p2pfl::core {
namespace {

void check_backends_agree(std::size_t m, std::size_t n, std::size_t tolerance,
                          std::size_t dim) {
  SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
               " tol=" + std::to_string(tolerance));
  std::map<std::string, net::TrafficStats> stats;
  for (const char* kind : {"sim", "tcp"}) {
    SCOPED_TRACE(std::string(kind) + " backend");
    net::Backend backend(kind, m * n, 31);
    const FixedLeaderRound run =
        even_round(backend.net(), m, n, tolerance, dim);
    ASSERT_TRUE(run.completed);
    check_closed_forms(backend.net().stats(), m, n, tolerance, dim);
    stats[kind] = backend.net().stats();
  }

  // The two backends' per-kind sent counters are *identical* — message
  // counts, wire bytes and |w|-unit payload, kind by kind.
  const auto& a = stats["sim"].sent_by_kind;
  const auto& b = stats["tcp"].sent_by_kind;
  ASSERT_EQ(a.size(), b.size());
  auto ia = a.begin();
  auto ib = b.begin();
  for (; ia != a.end(); ++ia, ++ib) {
    SCOPED_TRACE(ia->first);
    EXPECT_EQ(ia->first, ib->first);
    EXPECT_EQ(ia->second.messages, ib->second.messages);
    EXPECT_EQ(ia->second.bytes, ib->second.bytes);
    EXPECT_EQ(ia->second.payload, ib->second.payload);
  }
}

TEST(TransportEquivalence, FaultFreeRoundIdenticalAcrossBackends) {
  check_backends_agree(5, 4, 0, 6);
}

TEST(TransportEquivalence, FaultTolerantRoundIdenticalAcrossBackends) {
  check_backends_agree(3, 4, 1, 5);
}

// --- full-system FedAvg training on either backend ----------------------

constexpr std::size_t kPeers = 20;
constexpr std::size_t kGroups = 5;  // m=5 subgroups of n=4

/// `p2pflctl train`'s run on `kind`, measuring `rounds` rounds.
chaos::TrainingResult train(const char* kind, std::size_t rounds) {
  chaos::TrainingConfig cfg;
  cfg.peers = kPeers;
  cfg.groups = kGroups;
  cfg.rounds = rounds;
  net::Backend backend(kind, cfg.peers, cfg.seed);
  chaos::TrainingResult run = chaos::run_training(backend.net(), cfg);
  EXPECT_TRUE(run.finished) << kind << " system failed to complete "
                            << rounds + 1 << " rounds";
  return run;
}

/// Every measured round charged the paper's Eq. (4) exactly — the CLI's
/// verdict — and between the first and last round-completion snapshots
/// every kind sent exactly its closed-form messages and bytes. Wherever
/// the callback sits inside a round's send sequence, it sits there every
/// round, so the window is exact.
void check_eq4_window(const chaos::TrainingResult& run, std::size_t rounds) {
  // A clean run: every started round completed (an aborted round would
  // leave partial traffic inside the accounting window).
  EXPECT_EQ(run.rounds_aborted, 0u);
  ASSERT_EQ(run.round_payload.size(), rounds);
  ASSERT_FALSE(run.global.empty());
  constexpr std::size_t n = kPeers / kGroups;
  EXPECT_DOUBLE_EQ(run.expected_units,
                   analysis::two_layer_cost_eq4(kGroups, n));
  EXPECT_TRUE(run.all_exact());

  const KindCounters& first = run.snapshots.front();
  KindCounters window = run.snapshots[rounds];
  for (auto& [kind, c] : window) {
    const auto it = first.find(kind);
    if (it == first.end()) continue;
    c.messages -= it->second.messages;
    c.bytes -= it->second.bytes;
    c.payload -= it->second.payload;
  }
  // Raft and control traffic may ride along but carries no payload.
  check_kinds(window, kGroups, n, 0, run.global.size(), rounds,
              /*control_ok=*/true);
}

TEST(TransportEquivalence, FullSystemOverTcpMatchesEq4AndLearns) {
  // Twelve completed rounds: the first is the baseline, eleven are
  // measured, and the model has trained long enough to be evaluated.
  constexpr std::size_t kRounds = 11;
  const chaos::TrainingResult tcp = train("tcp", kRounds);
  {
    SCOPED_TRACE("tcp backend");
    check_eq4_window(tcp, kRounds);
  }
  // The simulator twin trains to the same round count as the real run.
  const std::size_t sim_rounds =
      tcp.rounds_completed > 0 ? tcp.rounds_completed - 1 : 0;
  const chaos::TrainingResult sim = train("sim", sim_rounds);
  {
    SCOPED_TRACE("sim backend");
    check_eq4_window(sim, sim_rounds);
  }
  // The model learns over TCP, to within tolerance of the simulator.
  EXPECT_NEAR(tcp.accuracy, sim.accuracy, 0.2);
  EXPECT_GT(tcp.accuracy, 0.4);
}

}  // namespace
}  // namespace p2pfl::core
