#include "net/tcp/frame.hpp"

#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "net/codec.hpp"

namespace p2pfl::net::tcp {

namespace {

/// The frame header in wire order, for both encode (const envelope,
/// ByteWriter) and decode (ByteReader); the payload blob follows it.
template <typename IO, typename Env>
void header(IO& io, Env& env) {
  io(env.from, env.to, env.kind, env.wire_bytes, env.payload_bytes,
     env.modeled_delta, env.dest_incarnation, env.span.round, env.span.span,
     env.chaos_duplicate);
}

}  // namespace

Bytes encode_frame(const Envelope& env) {
  const Codec* codec = CodecRegistry::global().find_kind(env.kind);
  P2PFL_CHECK_MSG(codec != nullptr,
                  "kind '" + env.kind +
                      "' has no registered codec; only canonical frames "
                      "may cross the TCP transport");
  ByteWriter w;
  header(w, env);
  // The payload rides as a length-prefixed blob, encoded in place: the
  // prefix is patched once the payload's length is known.
  const std::size_t prefix_at = w.size();
  w.u32(0);
  P2PFL_CHECK_MSG(codec->encode_to(env.body, w),
                  "payload type does not match the codec for kind '" +
                      env.kind + "'");
  w.patch_u32(prefix_at,
              static_cast<std::uint32_t>(w.size() - prefix_at - 4));
  return w.take();
}

std::optional<Envelope> decode_frame(const Bytes& body) {
  ByteReader r(body);
  Envelope env;
  header(r, env);
  const Bytes payload = r.blob();
  if (!r.complete()) return std::nullopt;
  const Codec* codec = CodecRegistry::global().find_kind(env.kind);
  if (codec == nullptr) return std::nullopt;
  std::optional<std::any> decoded = codec->decode(payload);
  if (!decoded.has_value()) return std::nullopt;
  env.body = std::move(*decoded);
  return env;
}

void append_length_prefixed(Bytes& out, const Bytes& body) {
  const std::uint32_t n = static_cast<std::uint32_t>(body.size());
  out.push_back(static_cast<std::uint8_t>(n & 0xff));
  out.push_back(static_cast<std::uint8_t>((n >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((n >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((n >> 24) & 0xff));
  out.insert(out.end(), body.begin(), body.end());
}

bool FrameAssembler::feed(const std::uint8_t* data, std::size_t n,
                          const std::function<void(Bytes&&)>& on_frame) {
  if (poisoned_) return false;
  buf_.insert(buf_.end(), data, data + n);
  for (;;) {
    const std::size_t avail = buf_.size() - pos_;
    if (avail < 4) break;
    const std::uint8_t* p = buf_.data() + pos_;
    const std::uint32_t len =
        static_cast<std::uint32_t>(p[0]) |
        (static_cast<std::uint32_t>(p[1]) << 8) |
        (static_cast<std::uint32_t>(p[2]) << 16) |
        (static_cast<std::uint32_t>(p[3]) << 24);
    if (len > max_frame_bytes_) {
      poisoned_ = true;
      return false;
    }
    if (avail < 4 + static_cast<std::size_t>(len)) break;
    Bytes body(buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + 4),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + 4 + len));
    pos_ += 4 + len;
    on_frame(std::move(body));
  }
  // Compact once the consumed prefix dominates, keeping feed amortized
  // O(bytes) without shifting the tail on every frame.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 4096)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  return true;
}

}  // namespace p2pfl::net::tcp
