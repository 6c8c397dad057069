// Binary wire codec for the core aggregation-layer messages.
//
// The typed structs that ride net::Envelope between the core actors —
// the subgroup-leader upload, the global-model result (two-layer "agg/*"
// and multilayer "ml/result" flavors), and the FedAvg-layer join request
// — with their canonical little-endian encodings. The charged WireSize
// helpers split each charge into the real framing plus the |w|-unit
// model payload the paper's cost analysis counts (and the declared
// modeled-CNN delta when model_wire_bytes overrides the real vector
// size).
#pragma once

#include <cstdint>
#include <optional>

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
};

/// Global model fanned back down ("agg/result" / "ml/result").
struct AggResultMsg {
  std::uint64_t round = 0;
  secagg::Vector model;
};

/// New subgroup representative asking the FedAvg leader to swap it in
/// for its subgroup's stale predecessor (kind "join").
struct JoinRequestMsg {
  PeerId candidate = kNoPeer;
  PeerId stale_representative = kNoPeer;
};

/// Evicted (or freshly wiped) peer asking its subgroup leader to be
/// configured back in (kind "member/rejoin"). `incarnation` is the
/// sender's current process incarnation, so a leader can log which life
/// of the peer is asking; the add itself is idempotent.
struct RejoinRequestMsg {
  PeerId peer = kNoPeer;
  SubgroupId subgroup = 0;
  std::uint64_t incarnation = 0;
};

/// Catch-up state transfer, peer -> subgroup leader: "send me the
/// latest global model you have" (kind "member/pull"). `last_round` is
/// the newest round the requester already holds (0 = nothing).
struct ModelPullMsg {
  PeerId peer = kNoPeer;
  std::uint64_t last_round = 0;
};

/// Append the canonical encoding of `m` to `w` (what net::Codec::encode_to
/// runs for the message's kind).
void encode_to(const AggUploadMsg& m, ByteWriter& w);
void encode_to(const AggResultMsg& m, ByteWriter& w);
void encode_to(const JoinRequestMsg& m, ByteWriter& w);
void encode_to(const RejoinRequestMsg& m, ByteWriter& w);
void encode_to(const ModelPullMsg& m, ByteWriter& w);

std::optional<AggUploadMsg> decode_upload(const Bytes& b);
std::optional<AggResultMsg> decode_result(const Bytes& b);
std::optional<JoinRequestMsg> decode_join(const Bytes& b);
std::optional<RejoinRequestMsg> decode_rejoin(const Bytes& b);
std::optional<ModelPullMsg> decode_pull(const Bytes& b);

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
