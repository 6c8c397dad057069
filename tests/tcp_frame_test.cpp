// Frame-layer edge cases for the TCP transport: header round-trips,
// strict rejection of damaged frames, the send frame written once (the
// payload Network::send encodes behind room for the head, held to
// encode_frame behind its length prefix byte for byte), and in-place
// stream reassembly under
// adversarial chunking (partial reads, coalesced frames, length prefixes
// split across reads, frames larger than the buffer, oversized-length
// poisoning).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/wire.hpp"
#include "net/network.hpp"
#include "net/tcp/frame.hpp"

namespace p2pfl::net::tcp {
namespace {

/// [u32 LE length][body]: how a frame body travels on the stream.
Bytes prefixed(const Bytes& body) {
  ByteWriter w;
  w.blob(body);
  return w.take();
}

/// Feeds `n` stream bytes to `asem` the way the receive loop does: each
/// read lands in read_space(), at most `chunk` bytes at a time. False
/// once received() reports a protocol error. `peak`, when given, keeps
/// the largest capacity any read saw.
bool feed(FrameAssembler& asem, const std::uint8_t* data, std::size_t n,
          const FrameAssembler::FrameFn& on_frame,
          std::size_t chunk = SIZE_MAX, std::size_t* peak = nullptr) {
  while (n > 0) {
    const std::span<std::uint8_t> space = asem.read_space();
    if (peak != nullptr) *peak = std::max(*peak, asem.capacity());
    const std::size_t m = std::min({n, space.size(), chunk});
    if (m > 0) std::memcpy(space.data(), data, m);  // a poisoned one has none
    if (!asem.received(m, on_frame)) return false;
    data += m;
    n -= m;
  }
  return true;
}

/// on_frame that keeps a copy of every body.
FrameAssembler::FrameFn collect(std::vector<Bytes>& out) {
  return [&out](ByteSpan body) { out.emplace_back(body.begin(), body.end()); };
}

void never_called(ByteSpan) { FAIL() << "no frame was expected"; }

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

/// A transport that frames like TcpTransport and keeps every frame it
/// is handed, so a test can hold what Network::send queues to
/// encode_frame. It only sends: no clock, timer or delivery.
class FrameTap final : public Transport {
 public:
  struct Sent {
    Envelope env;
    Bytes frame;
  };
  std::vector<Sent> sent;

  bool deterministic() const override { return false; }
  SimTime now() const override { return 0; }
  TimerToken schedule_after(SimDuration, std::function<void()>) override {
    ADD_FAILURE() << "the tap runs no timer";
    return kNoTimerToken;
  }
  bool cancel(TimerToken) override { return false; }
  std::size_t frame_head_bytes(const std::string& kind) const override {
    return tcp::frame_head_bytes(kind);
  }
  void send_frame(Envelope&& env, SimDuration, Bytes&& frame) override {
    write_frame_head(env, frame);
    sent.push_back({std::move(env), std::move(frame)});
  }
  void set_sink(FrameSink*) override {}
  obs::Observability& obs() override { return obs_; }
  Rng& rng() override { return rng_; }
  void call(const std::function<void()>& fn) override { fn(); }
  bool run_until(const std::function<bool()>& done, SimDuration,
                 SimDuration) override {
    return done();
  }

 private:
  SimTime clock_ = 0;
  obs::Observability obs_{&clock_};
  Rng rng_{1};
};

/// An agg result of `dim` floats from peer 0 to peer 1, charged exactly.
Envelope result_of(std::size_t dim, std::string kind = "agg/result") {
  core::wire::register_codecs();
  core::wire::AggResultMsg msg;
  msg.round = dim + 1;
  for (std::size_t i = 0; i < dim; ++i) {
    msg.model.push_back(static_cast<float>(i) * 0.5f - 3.0f);
  }
  Envelope env;
  env.from = 0;
  env.to = 1;
  env.kind = std::move(kind);
  env.wire_bytes = core::wire::kResultHeader + 4 * dim;
  env.payload_bytes = 4 * dim;
  env.body = std::move(msg);
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
  w.blob(encode_wire(*payload<core::wire::AggResultMsg>(env.body)));
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

TEST(TcpFrame, DecodesInPlaceInsideALargerBuffer) {
  // A received body is a view into the assembler's buffer, bytes of
  // other frames on either side: decode reads exactly the view.
  const Bytes body = encode_frame(sample_envelope());
  Bytes buf(7, 0xEE);
  buf.insert(buf.end(), body.begin(), body.end());
  buf.insert(buf.end(), 9, 0xEE);
  const ByteSpan view = ByteSpan(buf).subspan(7, body.size());
  const std::optional<Envelope> back = decode_frame(view);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(encode_frame(*back), body);
  for (std::size_t n = 0; n < body.size(); ++n) {
    EXPECT_FALSE(decode_frame(view.first(n)).has_value())
        << "prefix length " << n;
  }
  EXPECT_FALSE(decode_frame(ByteSpan(buf).subspan(7, body.size() + 1))
                   .has_value());
}

TEST(TcpFrame, InPlaceSendsAreWriteFrameByteForByte) {
  // Network::send encodes each payload behind frame_head_bytes(kind)
  // reserved bytes, in a buffer sized once to the frame; the head
  // written into that room makes the length-prefixed encode_frame of
  // the envelope. A small frame right after a large one on the same
  // link carries its own exact length prefix.
  FrameTap tap;
  Network net(tap, {});
  const std::size_t dims[] = {0, 3, 100000, 3, 0};
  for (const std::size_t dim : dims) {
    net.send(result_of(dim, dim == 3 ? "agg/g12/result" : "agg/result"));
  }
  ASSERT_EQ(tap.sent.size(), std::size(dims));
  for (std::size_t i = 0; i < std::size(dims); ++i) {
    const FrameTap::Sent& s = tap.sent[i];
    SCOPED_TRACE(::testing::Message() << "send " << i << " dim " << dims[i]);
    EXPECT_EQ(s.frame, prefixed(encode_frame(s.env)));
    EXPECT_EQ(s.frame.capacity(), s.frame.size());
    EXPECT_EQ(s.frame.size(),
              frame_head_bytes(s.env.kind) + core::wire::kResultHeader +
                  4 * dims[i]);
    ByteReader prefix(s.frame);
    EXPECT_EQ(prefix.u32(), s.frame.size() - 4);
    const std::optional<Envelope> back =
        decode_frame(ByteSpan(s.frame).subspan(4));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(payload<core::wire::AggResultMsg>(back->body)->model.size(),
              dims[i]);
  }
}

TEST(TcpFrame, ChaosDuplicateIsACopyOfTheInPlaceFrame) {
  // The duplicate goes first, in a copy of the original's buffer taken
  // before either head is written; the original then goes in its own
  // buffer. Their frames differ only in the header's duplicate flag.
  FrameTap tap;
  Network net(tap, {.faults = {.duplicate_prob = 1.0}});
  for (const std::size_t dim : {std::size_t{100000}, std::size_t{3}}) {
    net.send(result_of(dim));
  }
  ASSERT_EQ(tap.sent.size(), 4u);
  for (std::size_t i = 0; i < tap.sent.size(); i += 2) {
    const FrameTap::Sent& dup = tap.sent[i];
    const FrameTap::Sent& original = tap.sent[i + 1];
    EXPECT_TRUE(dup.env.chaos_duplicate);
    EXPECT_FALSE(original.env.chaos_duplicate);
    EXPECT_EQ(dup.frame, prefixed(encode_frame(dup.env)));
    EXPECT_EQ(original.frame, prefixed(encode_frame(original.env)));
    EXPECT_EQ(dup.frame.capacity(), dup.frame.size());
    // The flag is the header's last byte, before the payload's length.
    ASSERT_EQ(dup.frame.size(), original.frame.size());
    Bytes unflagged = dup.frame;
    std::uint8_t& flag = unflagged[frame_head_bytes(dup.env.kind) - 5];
    EXPECT_EQ(flag, 1);
    flag = 0;
    EXPECT_EQ(unflagged, original.frame);
  }
  // A send lost in flight after its encode hands the transport nothing.
  net.set_default_faults({.drop_prob = 1.0});
  net.send(result_of(100000));
  EXPECT_EQ(tap.sent.size(), 4u);
  EXPECT_EQ(net.stats().dropped_by_reason.at("chaos_loss"), 1u);
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
  for (int i = 0; i < 3; ++i) {
    const Bytes one = prefixed(body);
    stream.insert(stream.end(), one.begin(), one.end());
  }
  FrameAssembler asem;
  std::vector<Bytes> frames;
  for (const std::uint8_t b : stream) {
    ASSERT_TRUE(feed(asem, &b, 1, collect(frames)));
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
  Bytes stream = prefixed(a);
  const Bytes second = prefixed(b);
  stream.insert(stream.end(), second.begin(), second.end());
  FrameAssembler asem;
  std::vector<Bytes> frames;
  ASSERT_TRUE(feed(asem, stream.data(), stream.size(), collect(frames)));
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], a);
  EXPECT_EQ(frames[1], b);
  // Each body is handed on as a view that decodes where it lies.
  FrameAssembler again;
  std::vector<PeerId> senders;
  ASSERT_TRUE(feed(again, stream.data(), stream.size(), [&](ByteSpan body) {
    const std::optional<Envelope> env = decode_frame(body);
    ASSERT_TRUE(env.has_value());
    senders.push_back(env->from);
  }));
  EXPECT_EQ(senders, (std::vector<PeerId>{3, 1}));
}

TEST(TcpFrame, AssemblerHandlesPrefixSplitAcrossReads) {
  const Bytes body = encode_frame(sample_envelope());
  const Bytes stream = prefixed(body);
  FrameAssembler asem;
  std::vector<Bytes> frames;
  // Split inside the 4-byte length prefix, then inside the body.
  ASSERT_TRUE(feed(asem, stream.data(), 2, collect(frames)));
  EXPECT_TRUE(frames.empty());
  ASSERT_TRUE(feed(asem, stream.data() + 2, 5, collect(frames)));
  EXPECT_TRUE(frames.empty());
  ASSERT_TRUE(feed(asem, stream.data() + 7, stream.size() - 7,
                   collect(frames)));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0], body);
}

TEST(TcpFrame, AssemblerTakesAFrameLargerThanItsBuffer) {
  // A 400 KB body arrives in reads of the receive loop's size: the
  // buffer grows once, to exactly the frame, not by doubling, and is
  // released once the frame is handed on.
  Envelope env = sample_envelope();
  core::wire::AggResultMsg msg;
  msg.round = 7;
  for (std::size_t i = 0; i < 100000; ++i) {
    msg.model.push_back(static_cast<float>(i) * 0.25f);
  }
  env.body = msg;
  const Bytes big = encode_frame(env);
  const Bytes small = encode_frame(sample_envelope());
  ASSERT_GT(big.size(), 4 * kReadBytes);
  Bytes stream = prefixed(small);
  for (const Bytes* b : {&big, &small, &big}) {
    const Bytes one = prefixed(*b);
    stream.insert(stream.end(), one.begin(), one.end());
  }
  FrameAssembler asem;
  std::vector<Bytes> frames;
  std::size_t peak = 0;
  ASSERT_TRUE(feed(asem, stream.data(), stream.size(), collect(frames),
                   kReadBytes, &peak));
  ASSERT_EQ(frames.size(), 4u);
  EXPECT_EQ(frames[0], small);
  EXPECT_EQ(frames[1], big);
  EXPECT_EQ(frames[2], small);
  EXPECT_EQ(frames[3], big);
  EXPECT_EQ(asem.buffered(), 0u);
  // Never more than the frame being assembled: no doubling.
  EXPECT_EQ(peak, 4 + big.size());
  // Between frames, at most one read's worth.
  EXPECT_LE(asem.capacity(), kReadBytes);
  // A frame longer than one read is read to its end and no further, in
  // a buffer of exactly its size.
  msg.model.resize(msg.model.size() / 2);
  env.body = msg;
  const Bytes half = prefixed(encode_frame(env));
  ASSERT_GT(half.size(), 2 * kReadBytes);
  ASSERT_TRUE(feed(asem, half.data(), kReadBytes, never_called));
  EXPECT_EQ(asem.read_space().size(), half.size() - kReadBytes);
  EXPECT_EQ(asem.capacity(), half.size());
  ASSERT_TRUE(feed(asem, half.data() + kReadBytes, half.size() - kReadBytes,
                   collect(frames)));
  ASSERT_EQ(frames.size(), 5u);
  EXPECT_EQ(prefixed(frames[4]), half);
  EXPECT_LE(asem.capacity(), kReadBytes);
  for (const std::size_t chunk : {std::size_t{1000}, std::size_t{70000},
                                  std::size_t{300000}}) {
    FrameAssembler other;
    std::vector<Bytes> got;
    std::size_t other_peak = 0;
    ASSERT_TRUE(feed(other, stream.data(), stream.size(), collect(got), chunk,
                     &other_peak));
    ASSERT_EQ(got.size(), 4u) << "chunk " << chunk;
    EXPECT_EQ(got[3], big) << "chunk " << chunk;
    EXPECT_EQ(other_peak, 4 + big.size()) << "chunk " << chunk;
    EXPECT_LE(other.capacity(), kReadBytes) << "chunk " << chunk;
  }
}

TEST(TcpFrame, OversizedLengthPrefixPoisonsTheStream) {
  FrameAssembler asem(/*max_frame_bytes=*/1024);
  const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0x7f};
  EXPECT_FALSE(feed(asem, huge, 4, never_called));
  EXPECT_TRUE(asem.poisoned());
  // Poisoned: even valid bytes are refused afterwards.
  const std::uint8_t zero[4] = {0, 0, 0, 0};
  EXPECT_FALSE(feed(asem, zero, 4, never_called));
  // The poison stays with this stream: another assembler is untouched,
  // and this one, reset for a new connection, reassembles again.
  const Bytes stream = prefixed(encode_frame(sample_envelope()));
  FrameAssembler other(/*max_frame_bytes=*/1024);
  std::vector<Bytes> frames;
  EXPECT_TRUE(feed(other, stream.data(), stream.size(), collect(frames)));
  asem.reset();
  EXPECT_FALSE(asem.poisoned());
  EXPECT_TRUE(feed(asem, stream.data(), stream.size(), collect(frames)));
  EXPECT_EQ(frames.size(), 2u);
}

TEST(TcpFrame, TruncationMidFrameKeepsBytesBuffered) {
  const Bytes stream = prefixed(encode_frame(sample_envelope()));
  FrameAssembler asem;
  // Feed all but the last byte: nothing delivered, everything buffered —
  // the connection dying here simply drops the half-frame.
  ASSERT_TRUE(feed(asem, stream.data(), stream.size() - 1, never_called));
  EXPECT_EQ(asem.buffered(), stream.size() - 1);
}

TEST(TcpFrame, ADeliveryThatResetsTheAssemblerEndsTheRead) {
  // A delivery that closes its own connection resets the assembler: the
  // frames behind it in the same read are never handed on.
  const Bytes body = encode_frame(sample_envelope());
  Bytes stream = prefixed(body);
  const Bytes second = prefixed(body);
  stream.insert(stream.end(), second.begin(), second.end());
  FrameAssembler asem;
  int delivered = 0;
  ASSERT_TRUE(feed(asem, stream.data(), stream.size(), [&](ByteSpan) {
    ++delivered;
    asem.reset();
  }));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(asem.buffered(), 0u);
}

}  // namespace
}  // namespace p2pfl::net::tcp
