// Per-kind byte-accounting regression for a full two-layer round.
//
// With no model_wire_bytes override the charged wire size of every
// message equals its real encoded length exactly (modeled_delta = 0),
// and the network's encode-verify mode — on by default here — asserts
// that equality on every single send. On top of that this test pins the
// per-kind message counts and byte totals of a fault-free round to the
// closed forms implied by the framing constants, and the summed |w|-unit
// payload to the paper's Eq. (4) (k = n) and Eq. (5) (k < n).
#include <gtest/gtest.h>

#include <string>

#include "analysis/cost_model.hpp"
#include "fixed_leader_round.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace p2pfl::core {
namespace {

void check_round(std::size_t m, std::size_t n, std::size_t tolerance,
                 std::size_t dim) {
  SCOPED_TRACE("m=" + std::to_string(m) + " n=" + std::to_string(n) +
               " tol=" + std::to_string(tolerance));
  sim::Simulator sim(31);
  net::Network net(sim);
  const FixedLeaderRound run = even_round(net, m, n, tolerance, dim);
  ASSERT_TRUE(run.completed);
  check_closed_forms(net.stats(), m, n, tolerance, dim);
}

TEST(WireAccounting, FaultFreeRoundMatchesEq4PerKind) {
  check_round(3, 3, 0, 4);
  check_round(2, 4, 0, 6);
  check_round(4, 5, 0, 3);
}

TEST(WireAccounting, FaultTolerantRoundMatchesEq5PerKind) {
  check_round(3, 4, 1, 4);
  check_round(3, 5, 2, 5);
}

TEST(WireAccounting, ModeledCnnChargesDeclareTheirDelta) {
  // With a model_wire_bytes override the charge exceeds the encoding by
  // the declared delta; encode-verify accepts it and the payload counter
  // carries the modeled |w| while bytes carry the modeled wire size.
  constexpr std::uint64_t kCnn = 5'000'000;
  sim::Simulator sim(32);
  net::Network net(sim);
  AggregationConfig cfg;
  cfg.model_wire_bytes = kCnn;
  const FixedLeaderRound run(net, Topology::even(9, 3), cfg, [](PeerId id) {
    return secagg::Vector(4, static_cast<float>(id + 1));
  });
  ASSERT_TRUE(run.completed);
  const auto& st = net.stats();
  // Every transfer models one 5 MB CNN payload: the |w|-unit payload
  // total is Eq. (4) times the modeled size, not the 16-byte vectors.
  EXPECT_EQ(st.sent.payload,
            static_cast<std::uint64_t>(analysis::two_layer_cost_eq4(3, 3)) *
                kCnn);
  EXPECT_GT(st.sent.bytes, st.sent.payload);  // framing rides on top
}

}  // namespace
}  // namespace p2pfl::core
