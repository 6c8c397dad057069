// Codec registry: one canonical binary codec per protocol message kind.
//
// Every message that crosses net::Network rides as a typed std::any for
// speed, but its accounted wire size must be honest. Each protocol layer
// (raft/wire, secagg/wire, core/wire) registers a Codec here for every
// message it sends, built by make_codec from the message type alone:
// its fields() layout (common/serialize.hpp) gives the encoding and the
// strict decode, its operator== the equality. The network consults the
// registry to
//
//  * encode-verify: at send time, encode the payload in full and assert
//    the charged wire_bytes equals the encoded length (plus the declared
//    modeled-payload delta, see Envelope::modeled_delta), and
//  * corruption faults: chaos bit-flips/truncations operate on the real
//    encoding, and the receiver-side decode either recovers a typed
//    message or drops the envelope with reason "corrupt".
//
// Codec::encode_to appends to a caller's ByteWriter: the network
// encode-verifies every send into one writer it clears and reuses, and
// hands those bytes to the transport, so a payload is encoded once per
// send and no buffer is allocated for it. Codec::encode is the
// allocating convenience form. Codec::decode reads bytes where they lie
// (a span), so the TCP transport decodes a frame's payload in place.
//
// Kinds are channel-qualified ("sac/sg2/share", "raft/fed/ae"), so the
// registry is keyed by the channel-independent codec key
// "<family>:<op>" — the kind's first path segment plus its last
// ("raft/sg0/rv" -> "raft:rv", "join" -> "join"). The network resolves a
// kind's codec once per kind, not per message: codecs are never removed,
// so a found Codec* stays valid, while a kind with no codec yet is looked
// up again on its next message. The sample/equals hooks drive the
// exhaustive round-trip + truncation-fuzz property test and the
// `p2pflctl wire` catalog.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"

namespace p2pfl::net {

struct Envelope;

/// Shape parameters for Codec::sample: a plausible random instance for a
/// deployment with `dim`-parameter models in subgroups of `n` with
/// reconstruction threshold `k`.
struct WireSample {
  std::size_t dim = 8;
  std::size_t n = 4;
  std::size_t k = 3;
  std::uint64_t round = 1;
};

struct Codec {
  /// Channel-independent key, e.g. "raft:ae" or "sac:share".
  std::string key;
  /// Append the canonical encoding of the std::any payload to `out`;
  /// false, with nothing written, if the body is not this codec's type.
  std::function<bool(const std::any&, ByteWriter&)> encode_to;
  /// Strict decode; nullopt on truncated / malformed / trailing input.
  std::function<std::optional<std::any>(ByteSpan)> decode;
  /// Random plausible instance for the given shape (fuzz + catalog).
  std::function<std::any(Rng&, const WireSample&)> sample;
  /// Deep equality of two payloads of this type (round-trip checks).
  std::function<bool(const std::any&, const std::any&)> equals;

  /// The encoding in a fresh buffer; nullopt if the body is not this type.
  std::optional<Bytes> encode(const std::any& body) const {
    ByteWriter w;
    if (!encode_to(body, w)) return std::nullopt;
    return w.take();
  }
};

class CodecRegistry {
 public:
  /// The process-wide registry every protocol layer registers into.
  static CodecRegistry& global();

  /// Register (or replace) a codec under codec.key.
  void add(Codec codec);

  /// Codec key for a channel-qualified kind: first path segment + ":" +
  /// last path segment ("raft/sg1/ae" -> "raft:ae"); a kind without '/'
  /// is its own key ("join" -> "join").
  static std::string key_of_kind(const std::string& kind);

  const Codec* find_key(const std::string& key) const;
  const Codec* find_kind(const std::string& kind) const;

  /// All registered codecs, ordered by key.
  std::vector<const Codec*> all() const;

 private:
  std::map<std::string, Codec> codecs_;
};

/// Typed payload access: nullptr when the body holds a different type
/// (never throws, unlike std::any_cast on a reference).
template <typename T>
const T* payload(const std::any& body) {
  return std::any_cast<T>(&body);
}

/// A registry Codec for message type T: encode and strict decode by its
/// fields() layout, equality by its operator==, and a sample generator.
template <typename T>
Codec make_codec(std::string key, T (*sample_fn)(Rng&, const WireSample&)) {
  Codec c;
  c.key = std::move(key);
  c.encode_to = [](const std::any& body, ByteWriter& out) {
    const T* m = payload<T>(body);
    if (m == nullptr) return false;
    out(*m);
    return true;
  };
  c.decode = [](ByteSpan b) -> std::optional<std::any> {
    std::optional<T> m = decode_wire<T>(b);
    if (!m.has_value()) return std::nullopt;
    return std::any(std::move(*m));
  };
  c.sample = [sample_fn](Rng& rng, const WireSample& s) -> std::any {
    return sample_fn(rng, s);
  };
  c.equals = [](const std::any& a, const std::any& b) {
    const T* x = payload<T>(a);
    const T* y = payload<T>(b);
    return x != nullptr && y != nullptr && *x == *y;
  };
  return c;
}

}  // namespace p2pfl::net
