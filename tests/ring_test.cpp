#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "secagg/ring.hpp"

namespace p2pfl {
namespace {

using secagg::RingCodec;
using secagg::RingVector;
using secagg::Vector;

Vector random_vec(std::size_t dim, Rng& rng, double range = 2.0) {
  Vector v(dim);
  for (float& x : v) x = static_cast<float>(rng.uniform(-range, range));
  return v;
}

// --- ring sharing -------------------------------------------------------------

TEST(RingCodec, EncodeDecodeRoundTrip) {
  Rng rng(1);
  RingCodec codec;
  const Vector v = random_vec(64, rng);
  const RingVector enc = codec.encode(v);
  const Vector dec = codec.decode_mean(enc, 1);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(dec[i], v[i], 1e-6f);
  }
}

TEST(RingCodec, NegativeValuesSurviveTwoComplement) {
  RingCodec codec;
  const Vector v{-1.5f, -0.001f, 0.0f, 3.25f};
  const Vector dec = codec.decode_mean(codec.encode(v), 1);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(dec[i], v[i], 1e-6f);
  }
}

TEST(RingDivide, SharesSumExactlyModRing) {
  Rng rng(2);
  RingCodec codec;
  const Vector v = random_vec(32, rng);
  const RingVector secret = codec.encode(v);
  for (std::size_t n : {1u, 2u, 5u, 9u}) {
    const auto shares = secagg::ring_divide(secret, n, rng);
    const RingVector sum = secagg::ring_sum(shares);
    EXPECT_EQ(sum, secret) << "n=" << n;  // exact, no FP error at all
  }
}

TEST(RingDivide, SharesLookUniform) {
  // Unlike Alg. 1's proportional split, a ring share carries no trace of
  // the secret's sign or magnitude: its bits are uniform. Sanity-check
  // by splitting a zero vector — shares must still be non-trivial.
  Rng rng(3);
  const RingVector zero(128, 0);
  const auto shares = secagg::ring_divide(zero, 3, rng);
  std::size_t nonzero = 0;
  for (std::uint64_t x : shares[0]) {
    if (x != 0) ++nonzero;
  }
  EXPECT_EQ(nonzero, zero.size());
}

TEST(RingSacAverage, MatchesPlainAverageExactly) {
  Rng rng(4);
  for (std::size_t n : {2u, 3u, 10u, 30u}) {
    std::vector<Vector> models;
    for (std::size_t i = 0; i < n; ++i) models.push_back(random_vec(16, rng));
    const Vector avg = secagg::ring_sac_average(models, rng);
    for (std::size_t e = 0; e < 16; ++e) {
      double expected = 0.0;
      for (const auto& m : models) expected += m[e];
      expected /= static_cast<double>(n);
      // Fixed-point at 2^-24 resolution: error bounded by quantization.
      EXPECT_NEAR(avg[e], expected, 1e-5) << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace p2pfl
