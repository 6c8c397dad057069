// Frame-layer edge cases for the TCP transport: header round-trips,
// strict rejection of damaged frames, and stream reassembly under
// adversarial chunking (partial reads, coalesced frames, length
// prefixes split across reads, oversized-length poisoning).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/wire.hpp"
#include "net/tcp/frame.hpp"
#include "wire_encode.hpp"

namespace p2pfl::net::tcp {
namespace {

Envelope sample_envelope() {
  core::wire::register_codecs();
  core::wire::AggResultMsg msg;
  msg.round = 7;
  msg.model = {1.5f, -2.0f, 0.25f};
  Envelope env;
  env.from = 3;
  env.to = 9;
  env.kind = "agg/result";
  env.body = msg;
  env.wire_bytes = core::wire::kResultHeader + 4 * msg.model.size();
  env.payload_bytes = 4 * msg.model.size();
  env.modeled_delta = 0;
  env.span.round = 7;
  env.span.span = 41;
  env.dest_incarnation = 2;
  env.chaos_duplicate = false;
  return env;
}

TEST(TcpFrame, HeaderAndPayloadRoundTrip) {
  const Envelope env = sample_envelope();
  const Bytes body = encode_frame(env);
  const std::optional<Envelope> back = decode_frame(body);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->from, env.from);
  EXPECT_EQ(back->to, env.to);
  EXPECT_EQ(back->kind, env.kind);
  EXPECT_EQ(back->wire_bytes, env.wire_bytes);
  EXPECT_EQ(back->payload_bytes, env.payload_bytes);
  EXPECT_EQ(back->modeled_delta, env.modeled_delta);
  EXPECT_EQ(back->dest_incarnation, env.dest_incarnation);
  EXPECT_EQ(back->span.round, env.span.round);
  EXPECT_EQ(back->span.span, env.span.span);
  EXPECT_EQ(back->chaos_duplicate, env.chaos_duplicate);
  const auto* msg = payload<core::wire::AggResultMsg>(back->body);
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->round, 7u);
  EXPECT_EQ(msg->model, (secagg::Vector{1.5f, -2.0f, 0.25f}));
}

TEST(TcpFrame, BodyIsTheHeaderThenTheCodecEncodingAsABlob) {
  // The frame layout, byte for byte: the payload is encoded in place,
  // yet the frame equals a header followed by the payload's codec
  // encoding written as a length-prefixed blob.
  const Envelope env = sample_envelope();
  ByteWriter w;
  w.u32(env.from);
  w.u32(env.to);
  w.str(env.kind);
  w.u64(env.wire_bytes);
  w.u64(env.payload_bytes);
  w.u64(static_cast<std::uint64_t>(env.modeled_delta));
  w.u64(env.dest_incarnation);
  w.u64(env.span.round);
  w.u64(env.span.span);
  w.u8(0);
  w.blob(wire_encode(*payload<core::wire::AggResultMsg>(env.body)));
  EXPECT_EQ(encode_frame(env), w.bytes());
}

TEST(TcpFrame, NegativeModeledDeltaSurvives) {
  Envelope env = sample_envelope();
  env.modeled_delta = -12345;
  const std::optional<Envelope> back = decode_frame(encode_frame(env));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->modeled_delta, -12345);
}

TEST(TcpFrame, EveryStrictPrefixIsRejected) {
  const Bytes body = encode_frame(sample_envelope());
  for (std::size_t n = 0; n < body.size(); ++n) {
    const Bytes prefix(body.begin(),
                       body.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_FALSE(decode_frame(prefix).has_value()) << "prefix length " << n;
  }
}

TEST(TcpFrame, TrailingBytesAreRejected) {
  Bytes body = encode_frame(sample_envelope());
  body.push_back(0);
  EXPECT_FALSE(decode_frame(body).has_value());
}

TEST(TcpFrame, UnknownKindIsRejected) {
  Envelope env = sample_envelope();
  // Re-encode by hand with a kind that has no codec: decode must refuse.
  Bytes body = encode_frame(env);
  // Patch the kind in place: kind sits after from+to (8 bytes) as a
  // u32-length-prefixed string. Change "agg/result" -> "agg/resulx"
  // (same length, same family but unknown op).
  const std::string kind = "agg/result";
  bool patched = false;
  for (std::size_t i = 12; i + kind.size() <= body.size() && !patched; ++i) {
    if (std::equal(kind.begin(), kind.end(), body.begin() + i)) {
      body[i + kind.size() - 1] = 'x';
      patched = true;
    }
  }
  ASSERT_TRUE(patched);
  EXPECT_FALSE(decode_frame(body).has_value());
}

TEST(TcpFrame, AssemblerHandlesByteAtATimeDelivery) {
  const Bytes body = encode_frame(sample_envelope());
  Bytes stream;
  for (int i = 0; i < 3; ++i) append_length_prefixed(stream, body);
  FrameAssembler asem;
  std::vector<Bytes> frames;
  for (const std::uint8_t b : stream) {
    ASSERT_TRUE(asem.feed(&b, 1, [&](Bytes&& f) { frames.push_back(f); }));
  }
  ASSERT_EQ(frames.size(), 3u);
  for (const Bytes& f : frames) EXPECT_EQ(f, body);
  EXPECT_EQ(asem.buffered(), 0u);
}

TEST(TcpFrame, AssemblerHandlesCoalescedFramesInOneRead) {
  const Bytes a = encode_frame(sample_envelope());
  Envelope env2 = sample_envelope();
  env2.from = 1;
  const Bytes b = encode_frame(env2);
  Bytes stream;
  append_length_prefixed(stream, a);
  append_length_prefixed(stream, b);
  FrameAssembler asem;
  std::vector<Bytes> frames;
  ASSERT_TRUE(asem.feed(stream.data(), stream.size(),
                        [&](Bytes&& f) { frames.push_back(f); }));
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], a);
  EXPECT_EQ(frames[1], b);
}

TEST(TcpFrame, AssemblerHandlesPrefixSplitAcrossReads) {
  const Bytes body = encode_frame(sample_envelope());
  Bytes stream;
  append_length_prefixed(stream, body);
  FrameAssembler asem;
  std::vector<Bytes> frames;
  // Split inside the 4-byte length prefix, then inside the body.
  ASSERT_TRUE(asem.feed(stream.data(), 2,
                        [&](Bytes&& f) { frames.push_back(f); }));
  EXPECT_TRUE(frames.empty());
  ASSERT_TRUE(asem.feed(stream.data() + 2, 5,
                        [&](Bytes&& f) { frames.push_back(f); }));
  EXPECT_TRUE(frames.empty());
  ASSERT_TRUE(asem.feed(stream.data() + 7, stream.size() - 7,
                        [&](Bytes&& f) { frames.push_back(f); }));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], body);
}

TEST(TcpFrame, OversizedLengthPrefixPoisonsTheStream) {
  FrameAssembler asem(/*max_frame_bytes=*/1024);
  const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0x7f};
  EXPECT_FALSE(asem.feed(huge, 4, [](Bytes&&) { FAIL(); }));
  // Poisoned: even valid bytes are refused afterwards.
  const std::uint8_t zero[4] = {0, 0, 0, 0};
  EXPECT_FALSE(asem.feed(zero, 4, [](Bytes&&) { FAIL(); }));
}

TEST(TcpFrame, TruncationMidFrameKeepsBytesBuffered) {
  const Bytes body = encode_frame(sample_envelope());
  Bytes stream;
  append_length_prefixed(stream, body);
  FrameAssembler asem;
  // Feed all but the last byte: nothing delivered, everything buffered —
  // the connection dying here simply drops the half-frame.
  ASSERT_TRUE(
      asem.feed(stream.data(), stream.size() - 1, [](Bytes&&) { FAIL(); }));
  EXPECT_EQ(asem.buffered(), stream.size() - 1);
}

}  // namespace
}  // namespace p2pfl::net::tcp
