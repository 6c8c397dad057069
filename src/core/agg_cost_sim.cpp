#include "core/agg_cost_sim.hpp"

#include <memory>
#include <vector>

#include "common/check.hpp"
#include "net/mux.hpp"
#include "sim/simulator.hpp"

namespace p2pfl::core {

namespace {

constexpr std::size_t kDim = 4;

/// |w| units of the model payload sent under kinds starting with `prefix`
/// (the quantity the paper's Eqs. (4)/(5) model; real framing bytes ride
/// in counter.bytes).
double units_of(const net::Network& net, const char* prefix,
                std::uint64_t model_wire) {
  double bytes = 0.0;
  for (const auto& [kind, counter] : net.stats().sent_by_kind) {
    if (kind.rfind(prefix, 0) == 0) {
      bytes += static_cast<double>(counter.payload);
    }
  }
  return bytes / static_cast<double>(model_wire);
}

}  // namespace

FixedLeaderRound::FixedLeaderRound(
    net::Network& net, Topology topology, const AggregationConfig& cfg,
    const TwoLayerAggregator::ModelProvider& model_of)
    : topo(std::move(topology)), agg(topo, cfg, net) {
  agg.on_global_model = [this, &net](std::uint64_t, const secagg::Vector& g,
                                     std::size_t) {
    completed = true;
    global = g;
    committed_at = net.now();
  };
  agg.on_model_received = [this, &net](std::uint64_t, PeerId,
                                       const secagg::Vector&) {
    if (++received == topo.peer_count()) all_received_at = net.now();
  };
  net::Transport& tr = net.transport();
  tr.start();
  tr.call([&] {
    began_at = net.now();
    agg.begin_round(1, RoundLeadership::designated(topo), model_of);
  });
  tr.run_until(
      [&] {
        return completed &&
               net.stats().delivered.messages == net.stats().sent.messages;
      },
      60 * kSecond, 2 * kMillisecond);
  if (sim::Simulator* sim = tr.simulator()) sim->run();
  tr.shutdown();
}

AggRoundCost simulate_aggregation_cost(net::Network& net,
                                       std::span<const std::size_t> groups,
                                       std::size_t dropout_tolerance,
                                       std::uint64_t model_wire_bytes) {
  std::vector<std::vector<PeerId>> assignment(groups.size());
  PeerId next = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (std::size_t i = 0; i < groups[g]; ++i) assignment[g].push_back(next++);
  }
  AggregationConfig cfg;
  cfg.sac_dropout_tolerance = dropout_tolerance;
  cfg.model_wire_bytes = model_wire_bytes;
  cfg.collect_timeout = 3600 * kSecond;
  cfg.sac_share_timeout = 3600 * kSecond;
  cfg.sac_subtotal_timeout = 3600 * kSecond;
  cfg.upload_retry = 3600 * kSecond;
  const FixedLeaderRound round(net, Topology(std::move(assignment)), cfg,
                               [](PeerId) {
                                 return secagg::Vector(kDim, 1.0f);
                               });

  AggRoundCost out;
  out.completed = round.completed;
  if (round.committed_at >= 0) {
    out.aggregate_ms = to_ms(round.committed_at - round.began_at);
  }
  if (round.all_received_at >= 0) {
    out.all_received_ms = to_ms(round.all_received_at - round.began_at);
  }
  out.sac_units = units_of(net, "sac/", model_wire_bytes);
  out.fedavg_units = units_of(net, "agg/upload", model_wire_bytes);
  out.broadcast_units = units_of(net, "agg/result", model_wire_bytes);
  // agg/result covers both the FedAvg return hop and the in-subgroup
  // fan-out; split them: the return hop is (live leaders - 1) transfers.
  const double return_hop = static_cast<double>(groups.size()) - 1.0;
  out.fedavg_units += return_hop;
  out.broadcast_units -= return_hop;
  out.total_units = units_of(net, "", model_wire_bytes);
  return out;
}

AggRoundCost simulate_aggregation_cost(std::span<const std::size_t> groups,
                                       std::size_t dropout_tolerance) {
  sim::Simulator sim(77);
  net::Network net(sim, {.base_latency = 15 * kMillisecond});
  return simulate_aggregation_cost(net, groups, dropout_tolerance);
}

AggRoundCost simulate_one_layer_latency(net::Network& net, std::size_t peers,
                                        std::uint64_t model_wire_bytes) {
  sim::Simulator* sim = net.transport().simulator();
  P2PFL_CHECK_MSG(sim != nullptr, "one-layer latency runs on the simulator");
  std::vector<PeerId> group;
  std::vector<std::unique_ptr<net::PeerHost>> hosts;
  std::vector<std::unique_ptr<secagg::SacPeer>> actors;
  secagg::SacActorOptions opts;
  opts.broadcast_subtotals = true;  // Alg. 2
  opts.wire_bytes_per_share = model_wire_bytes;
  opts.share_timeout = 3600 * kSecond;
  opts.subtotal_timeout = 3600 * kSecond;
  for (PeerId id = 0; id < peers; ++id) {
    group.push_back(id);
    hosts.push_back(std::make_unique<net::PeerHost>());
    net.attach(id, hosts.back().get());
    actors.push_back(std::make_unique<secagg::SacPeer>(
        id, "sac/1l", opts, net, *hosts.back()));
  }
  AggRoundCost out;
  std::size_t done = 0;
  const SimTime start = net.now();
  for (auto& a : actors) {
    a->on_complete = [&](secagg::RoundId, const secagg::Vector&) {
      if (++done == peers) {
        out.completed = true;
        out.aggregate_ms = to_ms(net.now() - start);
        out.all_received_ms = out.aggregate_ms;
        sim->stop();
      }
    };
  }
  for (PeerId id = 0; id < peers; ++id) {
    actors[id]->begin_round(1, secagg::Vector(kDim, 1.0f), group, 0);
  }
  sim->run();
  for (PeerId id = 0; id < peers; ++id) net.detach(id);
  return out;
}

}  // namespace p2pfl::core
