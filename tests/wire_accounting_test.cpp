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

#include <stdexcept>
#include <string>

#include "analysis/cost_model.hpp"
#include "fixed_leader_round.hpp"
#include "net/network.hpp"
#include "raft/wire.hpp"
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

// Encode-verify must fire, not just pass: a charge one byte off the
// real encoding, or a body of the wrong type for its kind, throws at send
// time, before anything is accounted.
class EncodeVerify : public ::testing::Test {
 protected:
  EncodeVerify() : sim_(34), net_(sim_) {
    raft::wire::register_codecs();
    secagg::wire::register_codecs("sac");
    wire::register_codecs();
  }

  template <typename T>
  void expect_exact_charge_only(const std::string& kind, const T& body,
                                std::uint64_t exact) {
    SCOPED_TRACE(kind);
    EXPECT_THROW(net_.send(0, 1, kind, body, exact + 1), std::logic_error);
    EXPECT_THROW(net_.send(0, 1, kind, body, exact - 1), std::logic_error);
    EXPECT_NO_THROW(net_.send(0, 1, kind, body, exact));
  }

  sim::Simulator sim_;
  net::Network net_;
};

TEST_F(EncodeVerify, ChargeOffByOneByteThrows) {
  raft::AppendEntriesArgs ae;
  ae.term = 4;
  ae.leader = 2;
  ae.entries.push_back({.term = 4, .data = {1, 2, 3}});
  expect_exact_charge_only("raft/sg0/ae", ae, encode_wire(ae).size());

  secagg::SacShareMsg share;
  share.round = 2;
  share.parts = {{0, secagg::Vector(6, 0.5f)}, {1, secagg::Vector(6, 1.5f)}};
  expect_exact_charge_only("sac/sg1/share", share,
                           encode_wire(share).size());

  wire::AggUploadMsg up;
  up.round = 2;
  up.model = secagg::Vector(5, 1.0f);
  expect_exact_charge_only("agg/upload", up, encode_wire(up).size());

  // Only the three exact charges went out.
  EXPECT_EQ(net_.stats().sent.messages, 3u);
}

TEST_F(EncodeVerify, BodyOfTheWrongTypeThrows) {
  EXPECT_THROW(net_.send(0, 1, "raft/sg0/ae", raft::RequestVoteArgs{},
                         raft::RequestVoteArgs::kWireSize),
               std::logic_error);
  wire::AggResultMsg result;
  result.model = secagg::Vector(5, 1.0f);
  EXPECT_THROW(
      net_.send(0, 1, "agg/upload", result, encode_wire(result).size()),
      std::logic_error);
  EXPECT_EQ(net_.stats().sent.messages, 0u);
}

}  // namespace
}  // namespace p2pfl::core
