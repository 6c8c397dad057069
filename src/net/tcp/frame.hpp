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
// The bytes move as little as the socket API allows. write_frame lays
// the verified payload bytes, header and length prefix into one exactly
// sized buffer, the one the socket sends from. FrameAssembler gives the
// receive loop the space its next read lands in, and hands each complete
// frame body on as a view into that buffer, which decode_frame decodes
// where it lies. It reassembles frames from an arbitrary stream chunking
// (partial reads, coalesced frames, length prefixes split across reads)
// and rejects oversized length prefixes before allocating.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "common/serialize.hpp"
#include "net/envelope.hpp"

namespace p2pfl::net::tcp {

/// Upper bound on one frame body; a larger length prefix is a protocol
/// error (likely stream desync) and kills the connection.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

/// Bytes one receive asks the kernel for, unless the frame being
/// assembled still lacks more than that.
inline constexpr std::size_t kReadBytes = 64u << 10;

/// One frame as the socket sends it, [u32 LE body length][frame body],
/// for `env` whose payload's canonical encoding is `payload`. Written
/// once into a buffer that holds exactly the frame.
Bytes write_frame(const Envelope& env, ByteSpan payload);

/// The frame body of `env` (no length prefix): its payload encoded
/// through the kind's codec, laid out by write_frame's writer.
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
/// received(). The buffer never grows geometrically: it holds one read,
/// or exactly the largest frame it has assembled, whichever is larger.
class FrameAssembler {
 public:
  /// A complete frame body, viewed in the assembler's buffer; the view
  /// is valid only during the call.
  using FrameFn = std::function<void(ByteSpan body)>;

  explicit FrameAssembler(std::uint32_t max_frame_bytes = kMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Where the next read lands, past the buffered bytes: room for up
  /// to kReadBytes, or for the rest of the frame being assembled when
  /// that is longer.
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

  /// Forget all buffered bytes and clear the poisoned flag, making the
  /// assembler reusable for a *new* connection. The transport calls
  /// this when it tears a desynced stream down, so the slot's next
  /// accept starts clean instead of staying poisoned forever. The buffer
  /// is kept for that connection.
  void reset() {
    pos_ = end_ = 0;
    poisoned_ = false;
  }

 private:
  std::uint32_t max_frame_bytes_;
  std::unique_ptr<std::uint8_t[]> buf_;
  std::size_t cap_ = 0;
  std::size_t pos_ = 0;  // start of the first frame not yet handed on
  std::size_t end_ = 0;  // end of the bytes read
  bool poisoned_ = false;
};

}  // namespace p2pfl::net::tcp
