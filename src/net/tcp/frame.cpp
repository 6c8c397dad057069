#include "net/tcp/frame.hpp"

#include <algorithm>
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

/// Header bytes besides the kind's characters: from, to, the kind's
/// length prefix, six u64 fields and the duplicate flag.
constexpr std::size_t kHeaderFixedBytes = 4 + 4 + 4 + 6 * 8 + 1;

/// The frame body: the header, then the payload as a length-prefixed
/// blob.
void write_body(ByteWriter& w, const Envelope& env, ByteSpan payload) {
  header(w, env);
  w.blob(payload);
}

std::uint32_t read_u32_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

Bytes write_frame(const Envelope& env, ByteSpan payload) {
  ByteWriter w;
  w.reserve(4 + kHeaderFixedBytes + env.kind.size() + 4 + payload.size());
  w.u32(0);  // the body's length, patched once the body is written
  write_body(w, env, payload);
  w.patch_u32(0, static_cast<std::uint32_t>(w.size() - 4));
  return w.take();
}

Bytes encode_frame(const Envelope& env) {
  const Codec* codec = CodecRegistry::global().find_kind(env.kind);
  P2PFL_CHECK_MSG(codec != nullptr,
                  "kind '" + env.kind +
                      "' has no registered codec; only canonical frames "
                      "may cross the TCP transport");
  ByteWriter payload;
  P2PFL_CHECK_MSG(codec->encode_to(env.body, payload),
                  "payload type does not match the codec for kind '" +
                      env.kind + "'");
  ByteWriter w;
  write_body(w, env, payload.bytes());
  return w.take();
}

std::optional<Envelope> decode_frame(ByteSpan body) {
  ByteReader r(body);
  Envelope env;
  header(r, env);
  const ByteSpan payload = r.blob_view();
  if (!r.complete()) return std::nullopt;
  const Codec* codec = CodecRegistry::global().find_kind(env.kind);
  if (codec == nullptr) return std::nullopt;
  std::optional<std::any> decoded = codec->decode(payload);
  if (!decoded.has_value()) return std::nullopt;
  env.body = std::move(*decoded);
  return env;
}

std::span<std::uint8_t> FrameAssembler::read_space() {
  // Bytes the frame being assembled still lacks; 0 until its length
  // prefix is in (received() has checked that prefix against the max).
  std::size_t rest = 0;
  if (end_ - pos_ >= 4) {
    rest = pos_ + 4 + read_u32_le(buf_.get() + pos_) - end_;
  }
  // Room for the rest of the frame where it lies, or else for a full
  // read: move the buffered bytes to the front, and grow to exactly one
  // frame (or one read) only when that still leaves too little room.
  const std::size_t room = rest > 0 ? rest : kReadBytes;
  if (cap_ - end_ < room) {
    const std::size_t held = end_ - pos_;
    if (cap_ < held + room) {
      std::unique_ptr<std::uint8_t[]> bigger(new std::uint8_t[held + room]);
      if (held > 0) std::memcpy(bigger.get(), buf_.get() + pos_, held);
      buf_ = std::move(bigger);
      cap_ = held + room;
    } else if (held > 0) {
      std::memmove(buf_.get(), buf_.get() + pos_, held);
    }
    pos_ = 0;
    end_ = held;
  }
  // A frame longer than one read is read to its end and no further, so
  // what follows it in the buffer is less than one read.
  return {buf_.get() + end_,
          std::min(cap_ - end_, std::max(rest, kReadBytes))};
}

bool FrameAssembler::received(std::size_t n, const FrameFn& on_frame) {
  if (poisoned_) return false;
  P2PFL_CHECK(n <= cap_ - end_);
  end_ += n;
  // A delivery that resets the assembler empties it, which ends the loop:
  // the buffer is not touched again.
  while (end_ - pos_ >= 4) {
    const std::uint32_t len = read_u32_le(buf_.get() + pos_);
    if (len > max_frame_bytes_) {
      poisoned_ = true;
      return false;
    }
    if (end_ - pos_ - 4 < len) break;
    const ByteSpan body(buf_.get() + pos_ + 4, len);
    pos_ += 4 + static_cast<std::size_t>(len);
    on_frame(body);
  }
  if (pos_ == end_) pos_ = end_ = 0;
  return true;
}

}  // namespace p2pfl::net::tcp
