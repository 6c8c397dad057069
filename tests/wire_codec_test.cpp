// Exhaustive codec property tests: every registered protocol message
// kind round-trips through its canonical encoding, every strict prefix
// of a valid encoding is rejected, and random single-bit damage never
// crashes the strict decoders (the sanitizer CI job turns any
// out-of-bounds read this provokes into a failure). The WireGolden
// tests pin the bytes themselves: every codec's sample encodings, a
// fixed WAL sequence and a fixed TCP frame hash to recorded values.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/wire.hpp"
#include "net/codec.hpp"
#include "net/tcp/frame.hpp"
#include "raft/storage.hpp"
#include "raft/wire.hpp"
#include "secagg/wire.hpp"

namespace p2pfl::net {
namespace {

void register_everything() {
  raft::wire::register_codecs();
  secagg::wire::register_codecs("sac");
  secagg::wire::register_codecs("ml");
  core::wire::register_codecs();
}

/// The complete codec catalog this build is expected to ship. A protocol
/// message without a codec cannot be encode-verified or chaos-corrupted,
/// so additions to any wire.hpp must show up here.
const std::set<std::string> kExpectedKeys = {
    // Raft RPCs (both layers share one family).
    "raft:rv", "raft:rvr", "raft:ae", "raft:aer", "raft:is", "raft:isr",
    "raft:tn",
    // SAC on the two-layer subgroup channels and the multilayer tree
    // (incl. the Byzantine-detection commit echo).
    "sac:share", "sac:subtotal", "sac:request", "sac:share_req", "sac:echo",
    "ml:share", "ml:subtotal", "ml:request", "ml:share_req", "ml:echo",
    // Core aggregation layer.
    "agg:upload", "agg:result", "ml:result", "join",
    // Self-healing membership: rejoin handshake + model catch-up pull
    // (the reply rides raft:is, the InstallSnapshot path).
    "member:rejoin", "member:pull"};

TEST(CodecRegistry, KeyOfKindUsesFirstAndLastSegment) {
  EXPECT_EQ(CodecRegistry::key_of_kind("raft/sg0/rv"), "raft:rv");
  EXPECT_EQ(CodecRegistry::key_of_kind("raft/fed/ae"), "raft:ae");
  EXPECT_EQ(CodecRegistry::key_of_kind("sac/sg12/share"), "sac:share");
  EXPECT_EQ(CodecRegistry::key_of_kind("ml/g3//subtotal"), "ml:subtotal");
  EXPECT_EQ(CodecRegistry::key_of_kind("agg/upload"), "agg:upload");
  EXPECT_EQ(CodecRegistry::key_of_kind("join"), "join");
}

TEST(CodecRegistry, EveryProtocolKindHasACodec) {
  register_everything();
  std::set<std::string> have;
  for (const Codec* c : CodecRegistry::global().all()) have.insert(c->key);
  for (const std::string& key : kExpectedKeys) {
    EXPECT_TRUE(have.count(key)) << "missing codec for " << key;
  }
  for (const std::string& key : have) {
    EXPECT_TRUE(kExpectedKeys.count(key))
        << "codec " << key << " not in the expected catalog";
  }
  // The kinds the actors actually put on the wire resolve to codecs.
  for (const char* kind :
       {"raft/sg0/rv", "raft/fed/aer", "sac/sg2/share", "sac/chaos/subtotal",
        "ml/g0//share", "ml/result", "agg/upload", "agg/result", "join"}) {
    EXPECT_NE(CodecRegistry::global().find_kind(kind), nullptr) << kind;
  }
}

std::vector<WireSample> shapes() {
  return {{.dim = 1, .n = 2, .k = 1, .round = 1},
          {.dim = 8, .n = 4, .k = 3, .round = 7},
          {.dim = 17, .n = 6, .k = 6, .round = 1000}};
}

TEST(CodecRoundTrip, EncodeDecodeIsIdentityForEverySample) {
  register_everything();
  Rng rng(2024);
  for (const Codec* c : CodecRegistry::global().all()) {
    for (const WireSample& shape : shapes()) {
      for (int rep = 0; rep < 8; ++rep) {
        const std::any msg = c->sample(rng, shape);
        const std::optional<Bytes> encoded = c->encode(msg);
        ASSERT_TRUE(encoded.has_value()) << c->key;
        const std::optional<std::any> decoded = c->decode(*encoded);
        ASSERT_TRUE(decoded.has_value()) << c->key;
        EXPECT_TRUE(c->equals(msg, *decoded)) << c->key;
        // The canonical encoding is stable: re-encoding the decoded
        // value yields identical bytes.
        const std::optional<Bytes> again = c->encode(*decoded);
        ASSERT_TRUE(again.has_value()) << c->key;
        EXPECT_EQ(*encoded, *again) << c->key;
        // encode_to appends exactly encode()'s bytes, also into a writer
        // already holding data and into one cleared for reuse.
        ByteWriter w;
        w.u8(0xA5);
        ASSERT_TRUE(c->encode_to(msg, w)) << c->key;
        EXPECT_EQ(Bytes(w.bytes().begin() + 1, w.bytes().end()), *encoded)
            << c->key;
        w.clear();
        ASSERT_TRUE(c->encode_to(*decoded, w)) << c->key;
        EXPECT_EQ(w.bytes(), *encoded) << c->key;
      }
    }
  }
}

TEST(CodecRoundTrip, EncodeRejectsForeignPayloadTypes) {
  register_everything();
  for (const Codec* c : CodecRegistry::global().all()) {
    EXPECT_FALSE(c->encode(std::any(42)).has_value()) << c->key;
    EXPECT_FALSE(c->encode(std::any(std::string("x"))).has_value())
        << c->key;
    ByteWriter w;
    EXPECT_FALSE(c->encode_to(std::any(42), w)) << c->key;
    EXPECT_EQ(w.size(), 0u) << c->key;
  }
}

TEST(CodecHardening, EveryStrictPrefixIsRejected) {
  register_everything();
  Rng rng(99);
  const WireSample shape{.dim = 6, .n = 4, .k = 3, .round = 3};
  for (const Codec* c : CodecRegistry::global().all()) {
    const std::any msg = c->sample(rng, shape);
    const std::optional<Bytes> encoded = c->encode(msg);
    ASSERT_TRUE(encoded.has_value()) << c->key;
    for (std::size_t len = 0; len < encoded->size(); ++len) {
      const Bytes prefix(encoded->begin(),
                         encoded->begin() + static_cast<long>(len));
      EXPECT_FALSE(c->decode(prefix).has_value())
          << c->key << " accepted a " << len << "-byte prefix of "
          << encoded->size();
    }
  }
}

TEST(CodecHardening, RandomBitFlipsNeverCrashAndSurvivorsReencode) {
  // Fuzz: a single flipped bit either still decodes to a well-formed
  // message (data bits) or is rejected — never UB, never a throw. Runs
  // under ASan/UBSan in CI, which promotes any wild read to a failure.
  register_everything();
  Rng rng(7);
  const WireSample shape{.dim = 8, .n = 5, .k = 4, .round = 12};
  for (const Codec* c : CodecRegistry::global().all()) {
    const std::any msg = c->sample(rng, shape);
    const std::optional<Bytes> encoded = c->encode(msg);
    ASSERT_TRUE(encoded.has_value()) << c->key;
    std::size_t rejected = 0;
    for (int rep = 0; rep < 200; ++rep) {
      Bytes damaged = *encoded;
      const std::size_t bit = rng.index(damaged.size() * 8);
      damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      const std::optional<std::any> decoded = c->decode(damaged);
      if (!decoded.has_value()) {
        ++rejected;
        continue;
      }
      // A survivor must be a well-formed value of the right type.
      EXPECT_TRUE(c->encode(*decoded).has_value()) << c->key;
    }
    // Fixed-size messages have no structure to violate, so every flip
    // survives there; but flips into a length/count field must be
    // caught, so the variable-size encodings reject some.
    if (encoded->size() !=
        c->encode(c->sample(rng, {.dim = 1, .n = 2, .k = 1}))->size()) {
      EXPECT_GT(rejected, 0u) << c->key;
    }
  }
}

TEST(CodecHardening, RandomGarbageNeverCrashes) {
  register_everything();
  Rng rng(13);
  for (const Codec* c : CodecRegistry::global().all()) {
    for (int rep = 0; rep < 100; ++rep) {
      Bytes junk(rng.index(64));
      for (auto& b : junk) {
        b = static_cast<std::uint8_t>(rng.index(256));
      }
      const std::optional<std::any> decoded = c->decode(junk);
      if (decoded.has_value()) {
        EXPECT_TRUE(c->encode(*decoded).has_value()) << c->key;
      }
    }
  }
}

TEST(CodecSizes, ClosedFormFramingMatchesRealEncodings) {
  // The WireSize helpers promise these exact encoded sizes; the
  // encode-verify mode enforces them on every live send.
  using secagg::SacShareMsg;
  using secagg::SacSubtotalMsg;
  using secagg::SacSubtotalReq;
  using secagg::SacShareReq;

  SacShareMsg share;
  share.round = 3;
  share.from_pos = 1;
  share.parts = {{0, secagg::Vector(5, 1.0f)}, {2, secagg::Vector(5, 2.0f)}};
  EXPECT_EQ(encode_wire(share).size(),
            secagg::wire::kShareHeader +
                2 * (secagg::wire::kPerPartHeader + 4 * 5));

  SacSubtotalMsg sub;
  sub.round = 3;
  sub.idx = 4;
  sub.value = secagg::Vector(7, 0.5f);
  EXPECT_EQ(encode_wire(sub).size(),
            secagg::wire::kSubtotalHeader + 4 * 7);

  EXPECT_EQ(encode_wire(SacSubtotalReq{}).size(),
            secagg::wire::kSubtotalReqWire);
  EXPECT_EQ(encode_wire(SacShareReq{}).size(),
            secagg::wire::kShareReqWire);

  core::wire::AggUploadMsg up;
  up.model = secagg::Vector(9, 1.0f);
  EXPECT_EQ(encode_wire(up).size(),
            core::wire::kUploadHeader + 4 * 9);
  core::wire::AggResultMsg res;
  res.model = secagg::Vector(9, 1.0f);
  EXPECT_EQ(encode_wire(res).size(),
            core::wire::kResultHeader + 4 * 9);
  EXPECT_EQ(encode_wire(core::wire::JoinRequestMsg{}).size(),
            core::wire::kJoinWire);
}

std::uint64_t fnv1a64(const Bytes& b) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint8_t x : b) {
    h ^= x;
    h *= 1099511628211ull;
  }
  return h;
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), {});
}

TEST(WireGolden, EveryCodecsSampleEncodingsKeepTheirBytes) {
  // FNV-1a-64 of each codec's 64 concatenated sample encodings. A change
  // to a layout, a field order or a sample generator moves its hash.
  const std::map<std::string, std::uint64_t> golden = {
      {"raft:ae", 0x48f68e7bdd06380aull},
      {"raft:aer", 0x0c8fa71e98a41c64ull},
      {"raft:is", 0xed86eb0b8c75d673ull},
      {"raft:isr", 0x09714e70218c5880ull},
      {"raft:rv", 0xbf302f35e0fc13bdull},
      {"raft:rvr", 0x19c9371b4cc6df28ull},
      {"raft:tn", 0xbb31a4cd3720213aull},
      {"sac:share", 0xa0d2dab2fa651d41ull},
      {"ml:share", 0xa0d2dab2fa651d41ull},
      {"sac:subtotal", 0xd6d64d3df387341cull},
      {"ml:subtotal", 0xd6d64d3df387341cull},
      {"sac:request", 0x7b2f2235b1ff42dcull},
      {"ml:request", 0x7b2f2235b1ff42dcull},
      {"sac:share_req", 0x021183cf7dc242dcull},
      {"ml:share_req", 0x021183cf7dc242dcull},
      {"sac:echo", 0xb0d745f0634f70b6ull},
      {"ml:echo", 0xb0d745f0634f70b6ull},
      {"agg:upload", 0x1f2c300c2ff4a5f7ull},
      {"agg:result", 0xa96f582e9c7ecc29ull},
      {"ml:result", 0xa96f582e9c7ecc29ull},
      {"join", 0x756f6eba89d2eb2full},
      {"member:rejoin", 0xdcb3a0fd8984afd0ull},
      {"member:pull", 0x4b6254c3c28e876cull}};
  register_everything();
  const std::vector<WireSample> golden_shapes = {
      {.dim = 1, .n = 2, .k = 1, .round = 1},
      {.dim = 8, .n = 4, .k = 3, .round = 7},
      {.dim = 17, .n = 6, .k = 6, .round = 1000},
      {.dim = 1000, .n = 5, .k = 3, .round = 3}};
  std::size_t checked = 0;
  for (const Codec* c : CodecRegistry::global().all()) {
    Rng rng(2024);
    Bytes all;
    for (const WireSample& shape : golden_shapes) {
      for (int rep = 0; rep < 16; ++rep) {
        const std::optional<Bytes> b = c->encode(c->sample(rng, shape));
        ASSERT_TRUE(b.has_value()) << c->key;
        all.insert(all.end(), b->begin(), b->end());
      }
    }
    const auto it = golden.find(c->key);
    ASSERT_NE(it, golden.end()) << c->key;
    EXPECT_EQ(fnv1a64(all), it->second) << c->key;
    ++checked;
  }
  EXPECT_EQ(checked, golden.size());
}

TEST(WireGolden, WalAndSnapshotFilesKeepTheirBytes) {
  using raft::EntryKind;
  using raft::LogEntry;
  const std::string prefix = testing::TempDir() + "p2pfl_wal_golden_" +
                             std::to_string(::getpid());
  {
    raft::WalStorage s(prefix);
    s.load();
    s.persist_term_vote(3, 7);
    s.append_entry(1, LogEntry{3, EntryKind::kNoop, {}});
    s.append_entry(2, LogEntry{3, EntryKind::kCommand, {1, 2, 3, 4, 5}});
    s.append_entry(3, LogEntry{3, EntryKind::kConfig,
                               raft::encode_members({4, 1, 9})});
    s.truncate_from(3);
    s.append_entry(3, LogEntry{4, EntryKind::kCommand, {9, 8}});
    s.sync();
    const Bytes wal = read_file(s.wal_path());
    EXPECT_EQ(wal.size(), 181u);
    EXPECT_EQ(fnv1a64(wal), 0xa4770e34f84189e2ull);

    s.save_snapshot(2, 3, {1, 4, 9}, {0xAA, 0xBB}, 4, 1,
                    {LogEntry{4, EntryKind::kCommand, {9, 8}}});
    s.append_entry(4, LogEntry{4, EntryKind::kCommand, {7}});
    s.sync();
  }
  const Bytes wal = read_file(prefix + ".wal");
  const Bytes snap = read_file(prefix + ".snap");
  EXPECT_EQ(wal.size(), 109u);
  EXPECT_EQ(fnv1a64(wal), 0x1c9a755b63d57bbfull);
  EXPECT_EQ(snap.size(), 46u);
  EXPECT_EQ(fnv1a64(snap), 0x30a088b4e19c7cafull);
  std::remove((prefix + ".wal").c_str());
  std::remove((prefix + ".snap").c_str());
}

TEST(WireGolden, TcpFrameKeepsItsBytes) {
  core::wire::register_codecs();
  Envelope env;
  env.from = 3;
  env.to = 7;
  env.kind = "agg/result";
  env.body = core::wire::AggResultMsg{9, {1.5f, -2.0f, 0.25f}};
  env.wire_bytes = 24;
  env.payload_bytes = 12;
  env.modeled_delta = -5;
  env.dest_incarnation = 2;
  env.span.round = 9;
  env.span.span = 77;
  env.chaos_duplicate = true;
  const Bytes frame = tcp::encode_frame(env);
  EXPECT_EQ(frame.size(), 99u);
  EXPECT_EQ(fnv1a64(frame), 0x2de0bd1bfa541ae6ull);
  const std::optional<Envelope> back = tcp::decode_frame(frame);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->modeled_delta, -5);
  EXPECT_TRUE(back->chaos_duplicate);
  EXPECT_EQ(tcp::encode_frame(*back), frame);
}

}  // namespace
}  // namespace p2pfl::net
