// The canonical message frame crossing the net::Transport seam.
//
// An Envelope is one protocol message in flight: typed body, exact
// charged wire size (split into Eq. (4)/(5) payload units and framing
// overhead), causal span context, and the delivery-safety metadata the
// fault model needs (destination incarnation, chaos-duplicate marker).
// net::Network builds and accounts envelopes; the Transport behind it
// moves them — as pooled in-memory records on the deterministic
// simulator, or as length-prefixed codec bytes on a real socket.
#pragma once

#include <any>
#include <cstdint>
#include <string>

#include "common/serialize.hpp"
#include "common/types.hpp"
#include "obs/span.hpp"

namespace p2pfl::net {

/// Dense id of a message kind, interned per net::Network: the network
/// resolves a kind's codec, counters and stats once per id rather than
/// once per message. Ids mean nothing outside the Network that issued
/// them; kNoKind marks an envelope no Network has stamped yet.
using KindId = std::uint32_t;
inline constexpr KindId kNoKind = ~KindId{0};

/// One message on the wire. `body` is a typed payload (receivers access
/// it through net::payload<T>); `wire_bytes` is the size accounted for
/// cost analysis. When the network's encode-verify mode is on (the
/// default) and a codec is registered for the kind, the charge is
/// asserted against the real encoding at send time:
///   wire_bytes == encoded-length + modeled_delta.
struct Envelope {
  PeerId from = kNoPeer;
  PeerId to = kNoPeer;
  std::string kind;
  std::any body;
  std::uint64_t wire_bytes = 0;
  /// Model-data portion of wire_bytes, in the |w|-unit accounting of the
  /// paper's Eq. (4)/(5) (0 for pure control messages). The closed-form
  /// cost models count these bytes; wire_bytes additionally carries the
  /// codec's framing overhead.
  std::uint64_t payload_bytes = 0;
  /// Bytes the charge models beyond the real encoding: experiments
  /// simulate e.g. a 1.25M-parameter CNN (5 MB per transfer) while
  /// computing on tiny vectors, so the charged wire size exceeds the
  /// materialized encoding by exactly this declared amount (negative if
  /// the modeled payload is smaller). 0 = the charge is byte-exact.
  std::int64_t modeled_delta = 0;
  /// Causal context (round id + span id). Stamped by the sender's
  /// current span at send time when unset; in flight it names the
  /// delivery's own link span (the parent chain lives in the recorder).
  obs::SpanContext span;
  /// Chaos-duplicated copy: delivered normally but accounted under a
  /// distinct label so per-kind byte counts stay Eq. (4)/(5)-exact.
  bool chaos_duplicate = false;
  /// `kind` interned by the Network carrying this envelope, stamped at
  /// send time (PeerHost keys its route cache on it). A frame decoded
  /// from a socket arrives as kNoKind and is interned on delivery.
  KindId kind_id = kNoKind;
  /// Incarnation of the destination peer this message was addressed to,
  /// stamped by the network at send time. A crash bumps the target's
  /// incarnation, so messages still in flight toward the dead process
  /// are never delivered to its successor (dropped with reason
  /// "stale_incarnation") — the property amnesia restarts rely on.
  std::uint64_t dest_incarnation = 0;
};

/// Charged sizes of one message: the full on-the-wire size, the
/// |w|-unit model-data portion, and the declared modeled-payload delta
/// (see the Envelope fields of the same names).
struct WireSize {
  std::uint64_t wire = 0;
  std::uint64_t payload = 0;
  std::int64_t modeled = 0;
};

/// A chaos-corrupted payload in flight: the message's real encoding with
/// bits flipped or bytes truncated. The receiving side of the network
/// decodes it through the codec registry — a surviving decode is
/// delivered typed, a failing one is dropped with reason "corrupt".
struct CorruptPayload {
  Bytes wire;
};

}  // namespace p2pfl::net
