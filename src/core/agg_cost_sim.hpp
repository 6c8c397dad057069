// One fixed-leader aggregation round, and what it costs.
//
// FixedLeaderRound drives one two-layer aggregation round under
// designated leadership over any net::Network: the Raft-less rig behind
// the cost figures, the wire-accounting tests and the cross-transport
// tests. simulate_aggregation_cost runs it on a caller-owned Network and
// reads off the bytes the network counted, normalized to |w| units, and
// the round's latencies. The bytes cross-check the closed-form model of
// analysis/cost_model.hpp (tests assert exact equality; Figs. 13-14
// print both columns and fail on a mismatch); the latencies drive the
// round-latency ablation.
#pragma once

#include <cstdint>
#include <span>

#include "core/topology.hpp"
#include "core/two_layer_agg.hpp"
#include "net/network.hpp"

namespace p2pfl::core {

/// One round with RoundLeadership::designated(topo): `cfg` configures the
/// aggregator and `model_of` gives every peer's model. The constructor
/// starts the transport, runs the round until it committed and every
/// message sent was delivered, then shuts the transport down. On the
/// simulator it first runs on to quiescence, so a message sent after the
/// commit (a retry timer left armed, say) is counted too. `net` must
/// outlive the round.
struct FixedLeaderRound {
  FixedLeaderRound(net::Network& net, Topology topology,
                   const AggregationConfig& cfg,
                   const TwoLayerAggregator::ModelProvider& model_of);

  Topology topo;
  TwoLayerAggregator agg;
  bool completed = false;
  secagg::Vector global;
  /// Peers the global model reached.
  std::size_t received = 0;
  /// net.now() when the round began, when the FedAvg leader committed and
  /// when the last peer received the global model (-1 = never).
  SimTime began_at = 0;
  SimTime committed_at = -1;
  SimTime all_received_at = -1;
};

/// Synthetic |w| simulate_aggregation_cost charges by default for every
/// model transfer (exported so metric cross-checks can convert |w| units
/// back to the byte counts the network's metrics registry reports).
inline constexpr std::uint64_t kCostSimModelWire = 1u << 20;

/// One round's cost: payload bytes in |w| units, and virtual time from
/// its start.
struct AggRoundCost {
  double total_units = 0.0;      // everything, in |w| units
  double sac_units = 0.0;        // subgroup share + subtotal traffic
  double fedavg_units = 0.0;     // leader uploads + result returns
  double broadcast_units = 0.0;  // in-subgroup fan-out of the result
  /// Until the FedAvg leader holds the global model (-1 = never).
  double aggregate_ms = -1.0;
  /// Until every peer received it (-1 = never).
  double all_received_ms = -1.0;
  bool completed = false;  // the round produced a global model
};

/// One fault-free FixedLeaderRound over `groups` subgroup sizes on `net`,
/// which must be fresh (the |w| units are read off its traffic counters).
/// Each subgroup tolerates `dropout_tolerance` dropouts (a "k-n setting"
/// is tolerance = n - k; 0 = n-out-of-n). Peers contribute tiny constant
/// vectors whose every model transfer is charged `model_wire_bytes`.
/// Latency and egress bandwidth come from the Network's config, tracing,
/// spans and metrics from its transport. No timeout ever fires (3600 s),
/// so a slow link stretches the round instead of changing its bytes.
/// With a finite NIC the latencies show the two-layer system fanning
/// transfers out across subgroup leaders.
AggRoundCost simulate_aggregation_cost(
    net::Network& net, std::span<const std::size_t> groups,
    std::size_t dropout_tolerance,
    std::uint64_t model_wire_bytes = kCostSimModelWire);

/// The same round on a fresh simulator with 15 ms links.
AggRoundCost simulate_aggregation_cost(std::span<const std::size_t> groups,
                                       std::size_t dropout_tolerance);

/// One one-layer SAC round (Alg. 2, broadcast subtotals) over `peers`
/// peers on the simulator behind `net`; every peer serializes O(N) model
/// transfers through its own uplink. Only the latencies are filled in:
/// aggregate_ms = all_received_ms = until every peer holds the average.
AggRoundCost simulate_one_layer_latency(net::Network& net, std::size_t peers,
                                        std::uint64_t model_wire_bytes);

}  // namespace p2pfl::core
