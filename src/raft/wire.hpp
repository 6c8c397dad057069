// The Raft RPC codecs.
//
// Each RPC's canonical little-endian encoding is its fields() layout in
// raft/types.hpp; this registers one net::Codec per RPC, derived from
// the type (common/serialize.hpp, net/codec.hpp). Tests assert that the
// sizes the protocol charges (types.hpp kWireSize / wire_size()) equal
// the actual encoded length, byte for byte, and that every message
// round-trips; the TCP transport puts these bytes on the socket.
#pragma once

#include "raft/types.hpp"

namespace p2pfl::raft::wire {

/// Register the Raft RPC codecs ("raft:rv" ... "raft:tn") in the global
/// net::CodecRegistry. Idempotent; called by every RaftNode constructor.
void register_codecs();

}  // namespace p2pfl::raft::wire
