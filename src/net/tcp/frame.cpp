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

std::uint32_t read_u32_le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::size_t frame_head_bytes(const std::string& kind) {
  return 4 + kHeaderFixedBytes + kind.size() + 4;
}

void write_frame_head(const Envelope& env, std::span<std::uint8_t> frame) {
  const std::size_t head = frame_head_bytes(env.kind);
  P2PFL_CHECK(frame.size() >= head);
  ByteWriter w;
  w.reserve(head);
  w.u32(static_cast<std::uint32_t>(frame.size() - 4));
  header(w, env);
  w.u32(static_cast<std::uint32_t>(frame.size() - head));
  P2PFL_CHECK(w.size() == head);
  std::memcpy(frame.data(), w.bytes().data(), head);
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
  header(w, env);
  w.blob(payload.bytes());
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
  if (poisoned_) return {};  // its length prefix is not to be trusted
  // The buffered bytes are the start of one frame (received() hands on
  // every complete one). Its size, prefix included, once its length
  // prefix is in (received() has checked that prefix against the max).
  const std::size_t held = end_ - pos_;
  const std::size_t frame =
      held >= 4 ? 4 + std::size_t{read_u32_le(buf_.get() + pos_)} : 0;
  // A frame longer than one read needs a buffer of exactly its size, and
  // the frame must fit where it starts; anything else needs one read's
  // worth. Move the held bytes to the front of the buffer, or of a new
  // one of that size, when they lack the room.
  const std::size_t size = std::max(frame, kReadBytes);
  if (cap_ - pos_ < (frame > 0 ? frame : kReadBytes)) {
    if (cap_ < size) {
      std::unique_ptr<std::uint8_t[]> bigger(new std::uint8_t[size]);
      if (held > 0) std::memcpy(bigger.get(), buf_.get() + pos_, held);
      buf_ = std::move(bigger);
      cap_ = size;
    } else if (held > 0) {
      std::memmove(buf_.get(), buf_.get() + pos_, held);
    }
    pos_ = 0;
    end_ = held;
  }
  // A frame longer than one read is read to its end and no further, so
  // nothing follows it in its buffer when it is handed on.
  const std::size_t limit = frame > kReadBytes ? pos_ + frame : cap_;
  return {buf_.get() + end_, limit - end_};
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
  if (pos_ == end_) {
    pos_ = end_ = 0;
    // A frame-sized buffer goes with the frame it held.
    if (cap_ > kReadBytes) release();
  }
  return true;
}

}  // namespace p2pfl::net::tcp
