// Wire framing for the TCP transport.
//
// Every envelope crossing a socket travels as one length-prefixed frame:
//
//   [u32 LE body-length][frame body]
//
// where the frame body is a fixed little-endian header (routing ids,
// kind, the Eq. (4)/(5) byte-accounting fields, span context, delivery
// metadata) followed by the payload's canonical encoding from the
// process-wide CodecRegistry as a length-prefixed blob — the same bytes
// the network's encode-verify produced and checked for the send, which
// is what lets a loopback TCP run be checked byte-for-byte against the
// closed-form cost model.
//
// The bytes move as little as the socket API allows. Network::send
// encodes a payload behind frame_head_bytes(kind) reserved bytes, in a
// buffer sized once to the frame; write_frame_head, the one writer of a
// sent frame, fills that room with the length prefix, the header and
// the payload's length, and the socket sends the buffer. So a payload
// is written once, by its codec (a chaos duplicate is a copy of the
// buffer). encode_frame writes a frame body from scratch and is the
// byte oracle of every sent frame. FrameAssembler gives the receive
// loop the space its next read lands in, and hands each complete frame
// body on as a view into that buffer, which decode_frame decodes where
// it lies. It reassembles frames from an arbitrary stream chunking
// (partial reads, coalesced frames, length prefixes split across
// reads), rejects oversized length prefixes before allocating, and
// holds a frame-sized buffer only while that frame is assembled.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "common/serialize.hpp"
#include "net/envelope.hpp"

namespace p2pfl::net::tcp {

/// Upper bound on one frame body; a larger length prefix is a protocol
/// error (likely stream desync) and kills the connection.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Bytes one receive asks the kernel for, unless the frame being
/// assembled still lacks more than that.
inline constexpr std::size_t kReadBytes = 64u << 10;

/// Bytes a frame of `kind` puts in front of its payload's encoding: the
/// length prefix, the header and the payload's length. Only the kind's
/// length varies it.
std::size_t frame_head_bytes(const std::string& kind);

/// Makes `frame`, whose first frame_head_bytes(env.kind) bytes are
/// reserved and whose rest is the payload's canonical encoding, the
/// frame the socket sends, [u32 LE body length][frame body], by filling
/// in the head in place.
void write_frame_head(const Envelope& env, std::span<std::uint8_t> frame);

/// The frame body of `env` (no length prefix): the header, then its
/// payload encoded through the kind's codec as a length-prefixed blob.
/// CHECK-fails when the kind has no registered codec or the body does
/// not match it: only canonical frames travel.
Bytes encode_frame(const Envelope& env);

/// Strict inverse of encode_frame, reading `body` where it lies: decode
/// the header, then the payload bytes through the kind's codec. nullopt
/// on any malformed input — truncated header, unknown codec, codec
/// rejection, trailing bytes.
std::optional<Envelope> decode_frame(ByteSpan body);

/// Incremental length-prefixed stream reassembler. The receive loop
/// reads straight into read_space() and reports the count to
/// received(). Between frames the buffer holds at most one read
/// (kReadBytes). A frame longer than that is assembled in a buffer of
/// exactly its size, read to its end and no further, and the buffer is
/// released once the frame is handed on; it never grows geometrically.
class FrameAssembler {
 public:
  /// A complete frame body, viewed in the assembler's buffer; the view
  /// is valid only during the call.
  using FrameFn = std::function<void(ByteSpan body)>;

  explicit FrameAssembler(std::uint32_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Where the next read lands, past the buffered bytes: room for up
  /// to kReadBytes, or exactly the rest of the frame being assembled
  /// when that frame is longer than kReadBytes. Empty once poisoned.
  std::span<std::uint8_t> read_space();

  /// `n` bytes were read into read_space(). Invokes `on_frame` once per
  /// completed frame body, in order. Returns false on protocol error
  /// (length prefix exceeding the max) — the connection must be dropped,
  /// the assembler is poisoned for further input. When `on_frame`
  /// resets the assembler (its delivery closed the connection), the
  /// call returns at once and touches the buffer no more.
  bool received(std::size_t n, const FrameFn& on_frame);

  /// Bytes buffered waiting for the rest of a frame.
  std::size_t buffered() const { return end_ - pos_; }

  /// Size of the receive buffer.
  std::size_t capacity() const { return cap_; }

  /// True after a protocol error: received() refuses further input.
  bool poisoned() const { return poisoned_; }

  /// Forget all buffered bytes, release the buffer and clear the
  /// poisoned flag, making the assembler reusable for a *new*
  /// connection. The transport calls this when it closes a stream, so a
  /// closed slot holds no buffer and its next accept starts clean
  /// instead of staying poisoned forever. A delivery that resets the
  /// assembler must not read its frame's view afterwards.
  void reset() {
    release();
    poisoned_ = false;
  }

 private:
  void release() {
    buf_.reset();
    cap_ = pos_ = end_ = 0;
  }

  std::uint32_t max_frame_bytes_;
  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t cap_ = 0;
  std::size_t pos_ = 0;  // start of the first frame not yet handed on
  std::size_t end_ = 0;  // end of the bytes read
  bool poisoned_ = false;
};

}  // namespace p2pfl::net::tcp
