#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <set>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"

namespace p2pfl {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  Rng root(7);
  Rng c1 = root.fork(1);
  Rng c2 = root.fork(2);
  Rng c1_again = Rng(7).fork(1);
  EXPECT_EQ(c1.next_u64(), c1_again.next_u64());
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

TEST(Rng, UniformIntBounds) {
  Rng rng(99);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit over 1000 draws
}

TEST(Rng, UniformRealBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-1.5, 2.5);
    EXPECT_GE(v, -1.5);
    EXPECT_LT(v, 2.5);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(1);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Serialize, RoundTripPrimitives) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.str("hello");
  const Bytes buf = w.take();

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, RoundTripU32Vector) {
  ByteWriter w;
  std::vector<std::uint32_t> v{5, 0, 4294967295u, 17};
  w.vec_u32(v);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.vec_u32<std::uint32_t>(), v);
}

TEST(Serialize, TruncatedBufferFailsSoftly) {
  // A short read must not throw or touch out-of-range memory: it yields
  // a zero value and latches the reader into the failed state.
  ByteWriter w;
  w.u32(42);
  Bytes buf = w.take();
  buf.pop_back();
  ByteReader r(buf);
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.complete());
  // Every further read keeps failing, including on a fresh field.
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.vec_f32().empty());
  EXPECT_FALSE(r.ok());
}

TEST(Serialize, HostileLengthPrefixRejected) {
  // A corrupted element count far beyond the buffer must fail cleanly
  // instead of attempting a huge allocation.
  ByteWriter w;
  w.u32(0xFFFFFFFFu);  // claims 4G elements, no data follows
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.vec_f32().empty());
  EXPECT_FALSE(r.ok());
}

// The encoding vec_f32 must keep: a u32 count, then each float's bits as
// four little-endian bytes.
Bytes reference_vec_f32(const std::vector<float>& v) {
  Bytes out;
  const auto put_u32 = [&](std::uint32_t x) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
    }
  };
  put_u32(static_cast<std::uint32_t>(v.size()));
  for (float x : v) {
    std::uint32_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    put_u32(bits);
  }
  return out;
}

std::uint32_t bits_of(float x) {
  std::uint32_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

float from_bits(std::uint32_t b) {
  float x;
  std::memcpy(&x, &b, sizeof(x));
  return x;
}

TEST(Serialize, VecF32MatchesPerElementReference) {
  std::vector<std::vector<float>> cases = {
      {},
      {1.5f},
      // ±0, ±inf, quiet and signalling NaNs with payloads, denormals, FLT_MAX.
      {0.0f, -0.0f, std::numeric_limits<float>::infinity(),
       -std::numeric_limits<float>::infinity(), from_bits(0x7fc00001u),
       from_bits(0xffc0beefu), from_bits(0x7f800001u), from_bits(0x7fa5a5a5u),
       std::numeric_limits<float>::denorm_min(), from_bits(0x807fffffu),
       std::numeric_limits<float>::min(), std::numeric_limits<float>::max(),
       -std::numeric_limits<float>::max()},
  };
  Rng rng(31);
  for (std::size_t dim : {3u, 257u, 100'000u}) {
    std::vector<float> v(dim);
    for (float& x : v) x = static_cast<float>(rng.normal(0.0, 10.0));
    cases.push_back(std::move(v));
  }
  std::vector<float> random_bits(1024);
  for (float& x : random_bits) {
    x = from_bits(static_cast<std::uint32_t>(rng.next_u64()));
  }
  cases.push_back(std::move(random_bits));

  for (const auto& v : cases) {
    ByteWriter w;
    w.u8(0x5a);  // the vector need not start the buffer
    w.vec_f32(v);
    Bytes want{0x5a};
    const Bytes ref = reference_vec_f32(v);
    want.insert(want.end(), ref.begin(), ref.end());
    EXPECT_EQ(w.bytes(), want) << "dim=" << v.size();

    ByteReader r(w.bytes());
    EXPECT_EQ(r.u8(), 0x5a);
    const std::vector<float> back = r.vec_f32();
    EXPECT_TRUE(r.complete());
    ASSERT_EQ(back.size(), v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      ASSERT_EQ(bits_of(back[i]), bits_of(v[i])) << "element " << i;
    }
  }
}

TEST(Serialize, EmptyString) {
  ByteWriter w;
  w.str("");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), "");
}

TEST(Json, ParsesDocumentAndDottedPaths) {
  const auto v = json::parse(
      "{\"bench\":\"x\",\"n\":3,\"ok\":true,\"none\":null,"
      "\"cells\":[{\"acc\":0.25},{\"acc\":-1e2}],\"s\":\"a\\nb\"}");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->get("bench")->text, "x");
  const json::Value* cells = v->get("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->array.size(), 2u);
  EXPECT_DOUBLE_EQ(cells->array[1].get("acc")->number, -100.0);
  EXPECT_EQ(cells->array[0].get("acc")->text, "0.25");  // literal kept
  EXPECT_TRUE(v->get("none")->is_null());
  EXPECT_TRUE(v->get("ok")->boolean);
  EXPECT_EQ(v->get("s")->text, "a\nb");
  EXPECT_EQ(v->get("missing"), nullptr);
  EXPECT_EQ(cells->get("acc"), nullptr);  // an array has no members
}

TEST(Json, RejectsMalformedInputWithOffset) {
  json::ParseError err;
  EXPECT_FALSE(json::parse("{\"a\":", &err).has_value());
  EXPECT_FALSE(err.message.empty());
  EXPECT_FALSE(json::parse("{\"a\":1,}").has_value());
  EXPECT_FALSE(json::parse("[1 2]").has_value());
  EXPECT_FALSE(json::parse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(json::parse("\"unterminated").has_value());
}

}  // namespace
}  // namespace p2pfl
