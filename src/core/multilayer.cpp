#include "core/multilayer.hpp"

#include <string>

#include "common/check.hpp"

namespace p2pfl::core {

MultilayerTopology MultilayerTopology::build(std::size_t n,
                                             std::size_t layers) {
  P2PFL_CHECK(n >= 2 && layers >= 1);
  MultilayerTopology t;
  t.group_size = n;
  t.layers = layers;

  PeerId next = 0;
  auto fresh_peer = [&] {
    const PeerId id = next++;
    t.leads.push_back(-1);
    t.home.push_back(-1);
    return id;
  };

  // Top group: n fresh roots, first one is the (topmost) leader.
  Group top;
  top.layer = 1;
  for (std::size_t i = 0; i < n; ++i) {
    const PeerId p = fresh_peer();
    top.members.push_back(p);
    t.home[p] = 0;
  }
  top.leader = top.members.front();
  t.groups.push_back(std::move(top));

  // Expand: every *fresh* member of a layer-x group leads a layer-(x+1)
  // group; in the top group that is every member (the topmost leader
  // also leads a second-layer group, per the paper's exception).
  for (std::size_t g = 0; g < t.groups.size(); ++g) {
    const std::size_t layer = t.groups[g].layer;
    if (layer >= layers) continue;
    // Fresh members of g = all members except g's leader, except for the
    // top group where the leader is fresh too.
    std::vector<PeerId> parents;
    for (PeerId m : t.groups[g].members) {
      if (g == 0 || m != t.groups[g].leader) parents.push_back(m);
    }
    for (PeerId parent : parents) {
      Group child;
      child.layer = layer + 1;
      child.leader = parent;
      child.home_group_of_leader = static_cast<int>(g);
      child.members.push_back(parent);
      for (std::size_t i = 0; i + 1 < n; ++i) {
        const PeerId p = fresh_peer();
        child.members.push_back(p);
        t.home[p] = static_cast<int>(t.groups.size());
      }
      t.leads[parent] = static_cast<int>(t.groups.size());
      t.groups.push_back(std::move(child));
    }
  }
  t.peer_count = next;
  return t;
}

namespace {
std::string group_channel(std::size_t g) {
  return "ml/g" + std::to_string(g) + "/";
}
}  // namespace

MultilayerAggregator::MultilayerAggregator(
    const MultilayerTopology& topo, MultilayerOptions opts,
    net::Network& net, std::function<net::PeerHost&(PeerId)> host_of)
    : topo_(topo), opts_(opts), net_(net) {
  core::wire::register_codecs();
  runtimes_.resize(topo_.groups.size());
  secagg::SacActorOptions sac_opts;
  sac_opts.wire_bytes_per_share = opts_.model_wire_bytes;

  for (std::size_t g = 0; g < topo_.groups.size(); ++g) {
    const auto& group = topo_.groups[g];
    for (PeerId m : group.members) {
      auto actor = std::make_unique<secagg::SacPeer>(
          m, group_channel(g), sac_opts, net_, host_of(m));
      if (m == group.leader) {
        actor->on_complete = [this, g](RoundId round,
                                       const secagg::Vector& avg) {
          if (round == round_) group_complete(g, avg);
        };
      }
      runtimes_[g].actors.emplace(m, std::move(actor));
    }
  }
  for (PeerId p = 0; p < topo_.peer_count; ++p) {
    host_of(p).route("ml/result", [this, p](const net::Envelope& env) {
      const auto* msg = net::payload<ResultMsg>(env.body);
      if (msg != nullptr) handle_result(p, *msg);
    });
  }
}

std::uint64_t MultilayerAggregator::wire(std::size_t dim) const {
  return opts_.model_wire_bytes > 0
             ? opts_.model_wire_bytes
             : 4 * static_cast<std::uint64_t>(dim);
}

void MultilayerAggregator::begin_round(RoundId round,
                                       const ModelProvider& model_of) {
  round_ = round;
  // Every peer whose upward value is already known starts its SAC
  // participation; leaders of internal groups and leaf peers qualify.
  for (std::size_t g = 0; g < topo_.groups.size(); ++g) {
    const auto& group = topo_.groups[g];
    for (PeerId m : group.members) {
      const bool is_downward_leader = g != 0 && m == group.leader;
      if (is_downward_leader) {
        // The leader's contribution to the group it leads is its own
        // model.
        value_ready(g, m, model_of(m));
      } else if (topo_.leads[m] == -1) {
        // A pure leaf contributes its own model to its home group.
        value_ready(g, m, model_of(m));
      }
      // Fresh members leading a child group wait for that child.
    }
  }
}

void MultilayerAggregator::value_ready(std::size_t group_idx, PeerId peer,
                                       secagg::Vector value) {
  const auto& group = topo_.groups[group_idx];
  const std::size_t leader_pos = 0;  // leader is members.front()
  P2PFL_CHECK(group.members.front() == group.leader);
  runtimes_[group_idx].actors.at(peer)->begin_round(
      round_, std::move(value), group.members, leader_pos);
}

void MultilayerAggregator::group_complete(std::size_t group_idx,
                                          const secagg::Vector& avg) {
  const auto& group = topo_.groups[group_idx];
  const double n = static_cast<double>(group.members.size());
  // SAC averaged the members' subtree sums; scale back to the sum.
  secagg::Vector subtree_sum(avg.size());
  for (std::size_t i = 0; i < avg.size(); ++i) {
    subtree_sum[i] = static_cast<float>(static_cast<double>(avg[i]) * n);
  }

  if (group_idx == 0) {
    // Top of the hierarchy: the global sum over all N peers.
    secagg::Vector global(subtree_sum.size());
    const double N = static_cast<double>(topo_.peer_count);
    for (std::size_t i = 0; i < global.size(); ++i) {
      global[i] =
          static_cast<float>(static_cast<double>(subtree_sum[i]) / N);
    }
    if (on_complete) on_complete(round_, global);
    if (on_model_received) {
      on_model_received(round_, group.leader, global);
    }
    distribute(0, global);
    if (topo_.leads[group.leader] != -1) {
      distribute(static_cast<std::size_t>(topo_.leads[group.leader]),
                 global);
    }
    return;
  }
  // Pass the subtree sum up: it is the leader's contribution to its home
  // group (local state, no transfer — the leader is the same process).
  P2PFL_CHECK(group.home_group_of_leader >= 0);
  value_ready(static_cast<std::size_t>(group.home_group_of_leader),
              group.leader, std::move(subtree_sum));
}

void MultilayerAggregator::distribute(std::size_t group_idx,
                                      const secagg::Vector& global) {
  const auto& group = topo_.groups[group_idx];
  const net::WireSize size =
      core::wire::result_wire(wire(global.size()), global.size());
  for (PeerId m : group.members) {
    if (m == group.leader) continue;
    ResultMsg msg{round_, global};
    net_.send(group.leader, m, "ml/result", std::move(msg), size);
  }
}

void MultilayerAggregator::handle_result(PeerId self,
                                         const ResultMsg& msg) {
  if (msg.round != round_) return;
  if (on_model_received) on_model_received(round_, self, msg.model);
  if (topo_.leads[self] != -1) {
    distribute(static_cast<std::size_t>(topo_.leads[self]), msg.model);
  }
}

}  // namespace p2pfl::core
