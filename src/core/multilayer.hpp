// X-layer hierarchical aggregation (§VII-C, made executable).
//
// The paper analyzes generalizing the two-layer system to X layers with
// SAC at every level: the total peer count follows Eq. (6),
// N = sum_{k=1..X} n(n-1)^{k-1}, and the aggregation cost collapses to
// Eq. (10), C_total = (N-1)(n+2)|w|. This module builds that hierarchy
// and runs it as a real protocol over the simulated network, so Eq. (10)
// can be checked against counted bytes (see tests and
// bench/multilayer_cost).
//
// Topology (following the paper's §VII-C rules): the top group has n
// root peers; every member of a layer-x group (x < X) leads one
// layer-(x+1) group consisting of itself plus n-1 fresh peers; a peer
// never leads two layers below its own ("the follower in an x-th layer
// subgroup becomes a leader in the x+1-th layer, but cannot become a
// leader in the x+2-th layer, except that the leader of the topmost
// layer serves as the one of the second layer as well").
//
// Aggregation runs leaves-up: every group SACs the *subtree sums* of its
// members (a leaf peer's subtree sum is its own model; a leader's is
// n * the SAC average of the group it leads). The top leader divides the
// global sum by N — giving exactly the global mean even though subtree
// sizes differ by depth — and the result fans back down the tree with
// one transfer per non-root peer (the (N-1)|w| term of Eq. 7).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/wire.hpp"
#include "net/mux.hpp"
#include "net/network.hpp"
#include "secagg/sac_actor.hpp"

namespace p2pfl::core {

struct MultilayerTopology {
  struct Group {
    std::size_t layer = 1;  // 1 = top
    PeerId leader = kNoPeer;
    std::vector<PeerId> members;  // leader first
    /// Index of the group the leader belongs to one layer up
    /// (-1 for the top group).
    int home_group_of_leader = -1;
  };

  std::size_t group_size = 0;  // n
  std::size_t layers = 0;      // X
  std::size_t peer_count = 0;  // N per Eq. (6)
  std::vector<Group> groups;
  /// Group a peer leads (index into groups), -1 if none.
  std::vector<int> leads;
  /// Group in which a peer is a non-leader member ("home"), -1 for none
  /// (fresh peers' home is the group they were introduced in).
  std::vector<int> home;

  /// Build the §VII-C hierarchy. n >= 2, layers >= 1.
  static MultilayerTopology build(std::size_t n, std::size_t layers);
};

struct MultilayerOptions {
  /// Wire size of one model/subtree-sum transfer; 0 = 4 bytes * dim.
  std::uint64_t model_wire_bytes = 0;
};

class MultilayerAggregator {
 public:
  using RoundId = secagg::RoundId;
  using ModelProvider = std::function<secagg::Vector(PeerId)>;

  MultilayerAggregator(const MultilayerTopology& topo,
                       MultilayerOptions opts, net::Network& net,
                       std::function<net::PeerHost&(PeerId)> host_of);

  /// Start one full hierarchical aggregation.
  void begin_round(RoundId round, const ModelProvider& model_of);

  /// Fired on the top leader with the global average.
  std::function<void(RoundId, const secagg::Vector&)> on_complete;
  /// Fired on every peer when the global average reaches it.
  std::function<void(RoundId, PeerId, const secagg::Vector&)>
      on_model_received;

 private:
  using ResultMsg = wire::AggResultMsg;

  struct GroupRuntime {
    /// One SAC actor per member, keyed by peer.
    std::map<PeerId, std::unique_ptr<secagg::SacPeer>> actors;
  };

  void value_ready(std::size_t group_idx, PeerId peer,
                   secagg::Vector value);
  void group_complete(std::size_t group_idx, const secagg::Vector& avg);
  void distribute(std::size_t group_idx, const secagg::Vector& global);
  void handle_result(PeerId self, const ResultMsg& msg);
  std::uint64_t wire(std::size_t dim) const;

  const MultilayerTopology& topo_;
  MultilayerOptions opts_;
  net::Network& net_;
  std::vector<GroupRuntime> runtimes_;
  RoundId round_ = 0;
};

}  // namespace p2pfl::core
