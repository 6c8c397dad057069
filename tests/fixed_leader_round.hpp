// Test helpers around core::FixedLeaderRound (core/agg_cost_sim.hpp):
// the even-groups round and the closed-form checker for its traffic.
// WireAccounting runs the round on the simulator, TransportEquivalence
// on both backends, and the math-loop oracle test compares its committed
// model with the math aggregation.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "analysis/cost_model.hpp"
#include "core/agg_cost_sim.hpp"
#include "core/topology.hpp"
#include "core/wire.hpp"
#include "net/network.hpp"
#include "secagg/wire.hpp"

namespace p2pfl::core {

/// Aggregator defaults with each subgroup tolerating `tolerance` dropouts.
inline AggregationConfig sac_config(std::size_t tolerance) {
  AggregationConfig cfg;
  cfg.sac_dropout_tolerance = tolerance;
  return cfg;
}

/// core::FixedLeaderRound over m even subgroups of n, each tolerating
/// `tolerance` dropouts; peer p contributes the constant model p + 1.
/// No wire override: real encodings are charged byte-for-byte.
inline FixedLeaderRound even_round(net::Network& net, std::size_t m,
                                   std::size_t n, std::size_t tolerance,
                                   std::size_t dim) {
  return FixedLeaderRound(net, Topology::even(m * n, m), sac_config(tolerance),
                          [dim](PeerId id) {
                            return secagg::Vector(dim,
                                                  static_cast<float>(id + 1));
                          });
}

using KindCounters = std::map<std::string, net::TrafficStats::Counter>;

/// Pin the per-kind sent counters of `rounds` fault-free rounds to the
/// framing closed forms and their |w|-unit total to Eq. (4) (tolerance
/// 0) or Eq. (5). A kind outside the aggregation protocol fails the
/// check, unless `control_ok`, when it must carry no payload (Raft).
inline void check_kinds(const KindCounters& by_kind, std::size_t m,
                        std::size_t n, std::size_t tolerance, std::size_t dim,
                        std::uint64_t rounds = 1, bool control_ok = false) {
  const std::size_t k = n > tolerance ? n - tolerance : 1;
  const std::uint64_t w = 4 * static_cast<std::uint64_t>(dim);
  const std::uint64_t parts = n - k + 1;
  const std::uint64_t share_wire =
      secagg::wire::kShareHeader +
      parts * (secagg::wire::kPerPartHeader + w);
  const std::uint64_t subtotal_wire = secagg::wire::kSubtotalHeader + w;
  const std::uint64_t upload_wire = core::wire::kUploadHeader + w;
  const std::uint64_t result_wire = core::wire::kResultHeader + w;

  std::uint64_t total_payload = 0;
  for (const auto& [kind, c] : by_kind) {
    SCOPED_TRACE(kind);
    total_payload += c.payload;
    // Every kind this round produced has a registered codec — nothing
    // slipped past encode verification.
    ASSERT_NE(net::CodecRegistry::global().find_kind(kind), nullptr);
    if (kind.size() > 6 && kind.compare(kind.size() - 6, 6, "/share") == 0) {
      EXPECT_EQ(c.messages, rounds * n * (n - 1));
      EXPECT_EQ(c.bytes, c.messages * share_wire);
      EXPECT_EQ(c.payload, c.messages * parts * w);
    } else if (kind.size() > 9 &&
               kind.compare(kind.size() - 9, 9, "/subtotal") == 0) {
      EXPECT_EQ(c.messages, rounds * (k - 1));
      EXPECT_EQ(c.bytes, c.messages * subtotal_wire);
      EXPECT_EQ(c.payload, c.messages * w);
    } else if (kind == "agg/upload") {
      EXPECT_EQ(c.messages, rounds * (m - 1));
      EXPECT_EQ(c.bytes, c.messages * upload_wire);
      EXPECT_EQ(c.payload, c.messages * w);
    } else if (kind == "agg/result") {
      // Return hop to (m-1) other leaders + in-group fan-out m(n-1).
      EXPECT_EQ(c.messages, rounds * ((m - 1) + m * (n - 1)));
      EXPECT_EQ(c.bytes, c.messages * result_wire);
      EXPECT_EQ(c.payload, c.messages * w);
    } else if (control_ok) {
      EXPECT_EQ(c.payload, 0u);
    } else {
      ADD_FAILURE() << "unexpected kind in a fault-free round: " << kind;
    }
  }

  // The |w|-unit payload per round is the paper's closed form.
  const double units = static_cast<double>(total_payload) /
                       static_cast<double>(w * rounds);
  if (tolerance == 0) {
    EXPECT_DOUBLE_EQ(units, analysis::two_layer_cost_eq4(m, n));
  } else {
    EXPECT_DOUBLE_EQ(units, analysis::two_layer_ft_cost_eq5(m * n, m, n, k));
  }
}

/// check_kinds for one fixed-leader round, which sends nothing else, and
/// every message sent was delivered.
inline void check_closed_forms(const net::TrafficStats& stats, std::size_t m,
                               std::size_t n, std::size_t tolerance,
                               std::size_t dim) {
  check_kinds(stats.sent_by_kind, m, n, tolerance, dim);
  // Delivered matches sent exactly: no chaos, so no copy was lost.
  EXPECT_EQ(stats.delivered.messages, stats.sent.messages);
  EXPECT_EQ(stats.delivered.bytes, stats.sent.bytes);
  EXPECT_EQ(stats.delivered.payload, stats.sent.payload);
}

}  // namespace p2pfl::core
