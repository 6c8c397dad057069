// Binary wire codec for the Raft RPCs.
//
// The simulated network carries typed payloads (std::any) for speed, but
// every envelope's accounted wire size must be honest. This codec defines
// the canonical little-endian encoding for each RPC; tests assert that
// the sizes the protocol charges (types.hpp kWireSize / wire_size())
// equal the actual encoded length, byte for byte, and that every message
// round-trips. It is also what a real TCP transport for this library
// would put on the socket.
#pragma once

#include <optional>

#include "raft/types.hpp"

namespace p2pfl::raft::wire {

/// Append the canonical encoding of `m` to `w` (what net::Codec::encode_to
/// runs for the message's kind).
void encode_to(const RequestVoteArgs& m, ByteWriter& w);
void encode_to(const RequestVoteReply& m, ByteWriter& w);
void encode_to(const AppendEntriesArgs& m, ByteWriter& w);
void encode_to(const AppendEntriesReply& m, ByteWriter& w);
void encode_to(const InstallSnapshotArgs& m, ByteWriter& w);
void encode_to(const InstallSnapshotReply& m, ByteWriter& w);
void encode_to(const TimeoutNowArgs& m, ByteWriter& w);

std::optional<RequestVoteArgs> decode_request_vote(const Bytes& b);
std::optional<RequestVoteReply> decode_request_vote_reply(const Bytes& b);
std::optional<AppendEntriesArgs> decode_append_entries(const Bytes& b);
std::optional<AppendEntriesReply> decode_append_entries_reply(
    const Bytes& b);
std::optional<InstallSnapshotArgs> decode_install_snapshot(const Bytes& b);
std::optional<InstallSnapshotReply> decode_install_snapshot_reply(
    const Bytes& b);
std::optional<TimeoutNowArgs> decode_timeout_now(const Bytes& b);

/// Register the Raft RPC codecs ("raft:rv" ... "raft:tn") in the global
/// net::CodecRegistry. Idempotent; called by every RaftNode constructor.
void register_codecs();

}  // namespace p2pfl::raft::wire
