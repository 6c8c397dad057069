// The core aggregation-layer messages and their codecs.
//
// The typed structs that ride net::Envelope between the core actors —
// the subgroup-leader upload, the global-model result (two-layer "agg/*"
// and multilayer "ml/result" flavors), the FedAvg-layer join request and
// the membership rejoin and model pull — each with its canonical
// little-endian encoding stated once, as fields() (common/serialize.hpp).
// The charged WireSize helpers, stated independently of fields(), split
// each charge into the real framing plus the |w|-unit model payload the
// paper's cost analysis counts (and the declared modeled-CNN delta when
// model_wire_bytes overrides the real vector size).
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "net/codec.hpp"
#include "net/network.hpp"
#include "secagg/sac.hpp"

namespace p2pfl::core::wire {

/// Subgroup leader -> FedAvg leader: the subgroup's SAC average,
/// weighted by how many peers it aggregates ("agg/upload").
struct AggUploadMsg {
  std::uint64_t round = 0;
  SubgroupId group = 0;
  std::uint32_t weight = 0;  // peers aggregated in the subgroup
  secagg::Vector model;

  template <typename Self, typename IO>
  static void fields(Self& m, IO& io) {
    io(m.round, m.group, m.weight, m.model);
  }
  bool operator==(const AggUploadMsg&) const = default;
};

/// Global model fanned back down ("agg/result" / "ml/result").
struct AggResultMsg {
  std::uint64_t round = 0;
  secagg::Vector model;

  template <typename Self, typename IO>
  static void fields(Self& m, IO& io) {
    io(m.round, m.model);
  }
  bool operator==(const AggResultMsg&) const = default;
};

/// New subgroup representative asking the FedAvg leader to swap it in
/// for its subgroup's stale predecessor (kind "join").
struct JoinRequestMsg {
  PeerId candidate = kNoPeer;
  PeerId stale_representative = kNoPeer;

  template <typename Self, typename IO>
  static void fields(Self& m, IO& io) {
    io(m.candidate, m.stale_representative);
  }
  bool operator==(const JoinRequestMsg&) const = default;
};

/// Evicted (or freshly wiped) peer asking its subgroup leader to be
/// configured back in (kind "member/rejoin"). `incarnation` is the
/// sender's current process incarnation, so a leader can log which life
/// of the peer is asking; the add itself is idempotent.
struct RejoinRequestMsg {
  PeerId peer = kNoPeer;
  SubgroupId subgroup = 0;
  std::uint64_t incarnation = 0;

  template <typename Self, typename IO>
  static void fields(Self& m, IO& io) {
    io(m.peer, m.subgroup, m.incarnation);
  }
  bool operator==(const RejoinRequestMsg&) const = default;
};

/// Catch-up state transfer, peer -> subgroup leader: "send me the
/// latest global model you have" (kind "member/pull"). `last_round` is
/// the newest round the requester already holds (0 = nothing).
struct ModelPullMsg {
  PeerId peer = kNoPeer;
  std::uint64_t last_round = 0;

  template <typename Self, typename IO>
  static void fields(Self& m, IO& io) {
    io(m.peer, m.last_round);
  }
  bool operator==(const ModelPullMsg&) const = default;
};

/// Framing: upload = round + group + weight + element count; result =
/// round + element count; join = candidate + stale representative.
/// There is no push reply: a leader answers a member/pull by installing
/// its subgroup snapshot on the puller (Raft InstallSnapshot carrying
/// the model as the snapshot's application blob).
inline constexpr std::uint64_t kUploadHeader = 20;
inline constexpr std::uint64_t kResultHeader = 12;
inline constexpr std::uint64_t kJoinWire = 8;
inline constexpr std::uint64_t kRejoinWire = 16;
inline constexpr std::uint64_t kPullWire = 12;

/// Charged size of one model upload / result accounted as `payload`
/// model bytes while actually carrying `dim` floats.
net::WireSize upload_wire(std::uint64_t payload, std::size_t dim);
net::WireSize result_wire(std::uint64_t payload, std::size_t dim);

/// Register the core codecs ("agg:upload", "agg:result", "ml:result",
/// "join", "member:rejoin", "member:pull"). Idempotent; called by the
/// core actor constructors.
void register_codecs();

}  // namespace p2pfl::core::wire
