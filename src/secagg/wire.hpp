// The SAC protocol codecs and their closed-form sizes.
//
// The five SacPeer message types (share bundle, subtotal, subtotal
// request, share retransmission request, commit echo) state their
// canonical little-endian encoding as fields() in secagg/sac_actor.hpp;
// this registers one net::Codec per type. The network's encode-verify
// checks every charge against these encodings; the charged WireSize
// helpers below, stated independently of fields(), also expose the
// |w|-unit payload portion the paper's Eq. (4)/(5) cost analysis counts
// and, when a round models a large CNN on tiny vectors
// (wire_bytes_per_share override), the declared modeled-payload delta.
#pragma once

#include <span>

#include "net/codec.hpp"
#include "net/network.hpp"
#include "secagg/sac_actor.hpp"

namespace p2pfl::secagg::wire {

/// The digest of an empty share (FNV-1a's offset basis).
inline constexpr std::uint64_t kEmptyShareDigest = 1469598103934665603ull;

/// FNV-1a digest of one share's raw float bytes (the per-share
/// commitment entry) / of a whole commitment vector (what holders echo
/// to the leader). Not cryptographic: the threat model is consistency
/// attribution among known members, not forgery by outsiders.
/// `digest` is the digest of the elements before `share`, so a share
/// digested block by block, each call continuing the last, gets the
/// digest of the whole share.
std::uint64_t share_digest(std::span<const float> share,
                           std::uint64_t digest = kEmptyShareDigest);
std::uint64_t commit_digest(const std::vector<std::uint64_t>& commit);

/// Fixed encoded sizes of the control messages (u64 round + u32 fields).
inline constexpr std::uint64_t kSubtotalReqWire = 16;
inline constexpr std::uint64_t kShareReqWire = 12;
/// Framing of a share bundle: 16-byte header (round + from_pos + part
/// count) plus 8 bytes per part (share index + element count).
inline constexpr std::uint64_t kShareHeader = 16;
inline constexpr std::uint64_t kPerPartHeader = 8;
/// Framing of a subtotal: round + idx + element count.
inline constexpr std::uint64_t kSubtotalHeader = 16;
/// Commit-echo framing: round + from_pos + two vector length prefixes;
/// each reported position adds 9 bytes (u64 digest + bad flag).
inline constexpr std::uint64_t kEchoHeader = 20;
inline constexpr std::uint64_t kEchoPerPos = 9;
/// A non-empty commitment adds its length prefix + 8 bytes per share.
inline constexpr std::uint64_t kCommitPrefix = 4;
inline constexpr std::uint64_t kCommitPerShare = 8;

/// Charged size of a share bundle of `parts` shares, each accounted as
/// `payload_each` model bytes while actually holding `dim` floats.
/// `commit_entries` > 0 adds the detection commitment's framing bytes
/// (commitments are overhead, never Eq. (4)/(5) payload).
net::WireSize share_wire(std::size_t parts, std::uint64_t payload_each,
                         std::size_t dim, std::size_t commit_entries = 0);

/// Charged size of a commit echo covering `positions` group members.
/// Pure framing: payload 0.
net::WireSize echo_wire(std::size_t positions);

/// Charged size of one subtotal accounted as `payload` model bytes while
/// actually holding `dim` floats.
net::WireSize subtotal_wire(std::uint64_t payload, std::size_t dim);

/// Register the SAC codecs for one kind family ("<family>:share" ...),
/// e.g. "sac" for the two-layer subgroups and "ml" for the multilayer
/// tree. Idempotent per family; called by every SacPeer constructor with
/// the first path segment of its channel.
void register_codecs(const std::string& family);

}  // namespace p2pfl::secagg::wire
