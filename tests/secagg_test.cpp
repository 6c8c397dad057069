#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "secagg/sac.hpp"
#include "secagg/shares.hpp"

namespace p2pfl::secagg {
namespace {

Vector random_vector(std::size_t dim, Rng& rng) {
  Vector v(dim);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, 1.0));
  return v;
}

void expect_near(const Vector& a, const Vector& b, float tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << "at element " << i;
  }
}

Vector plain_average(std::span<const Vector> models) {
  Vector avg(models.front().size(), 0.0f);
  for (const auto& m : models) {
    for (std::size_t i = 0; i < avg.size(); ++i) avg[i] += m[i];
  }
  for (float& v : avg) v /= static_cast<float>(models.size());
  return avg;
}

// --- shares ------------------------------------------------------------------

// The per-element split that `divide` replaced: n out-of-line Rng draws
// per element, written across the n share vectors. Kept as the oracle for
// the distribution of the block kernel's shares.
std::vector<Vector> reference_divide(std::span<const float> secret,
                                     std::size_t n, Rng& rng,
                                     SplitScheme scheme) {
  std::vector<Vector> shares(n, Vector(secret.size()));
  std::vector<double> fractions(n);
  for (std::size_t e = 0; e < secret.size(); ++e) {
    if (scheme == SplitScheme::kProportional) {
      double total = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        fractions[i] = rng.uniform(0.05, 1.0);
        total += fractions[i];
      }
      for (std::size_t i = 0; i < n; ++i) {
        shares[i][e] = static_cast<float>(fractions[i] / total *
                                          static_cast<double>(secret[e]));
      }
    } else {
      double acc = 0.0;
      for (std::size_t i = 0; i + 1 < n; ++i) {
        shares[i][e] =
            static_cast<float>(rng.uniform(-kMaskRange, kMaskRange));
        acc += static_cast<double>(shares[i][e]);
      }
      shares[n - 1][e] =
          static_cast<float>(static_cast<double>(secret[e]) - acc);
    }
  }
  return shares;
}

// Per share index, the first two moments over elements of share/secret
// (proportional: the fraction, mean about 1/n) or of the share (mask: the
// noise, mean 0 and mean square kMaskRange²/3; the last share, which
// carries the secret, is left out).
struct Moments {
  std::vector<double> mean, mean_sq;
};

Moments per_index_moments(const std::vector<Vector>& shares,
                          const Vector& secret, SplitScheme scheme) {
  const bool prop = scheme == SplitScheme::kProportional;
  const std::size_t k = prop ? shares.size() : shares.size() - 1;
  Moments m{std::vector<double>(k, 0.0), std::vector<double>(k, 0.0)};
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t e = 0; e < secret.size(); ++e) {
      const double v = prop ? shares[i][e] / static_cast<double>(secret[e])
                            : static_cast<double>(shares[i][e]);
      m.mean[i] += v;
      m.mean_sq[i] += v * v;
    }
    m.mean[i] /= static_cast<double>(secret.size());
    m.mean_sq[i] /= static_cast<double>(secret.size());
  }
  return m;
}

class DivideSchemes : public ::testing::TestWithParam<SplitScheme> {};

TEST_P(DivideSchemes, SharesSumToSecret) {
  Rng rng(11);
  for (std::size_t n : {1u, 2u, 3u, 5u, 10u, 31u}) {
    const Vector secret = random_vector(64, rng);
    const auto shares = divide(secret, n, rng, GetParam());
    ASSERT_EQ(shares.size(), n);
    std::vector<double> acc(secret.size(), 0.0);
    for (const Vector& s : shares) accumulate(acc, s);
    const Vector sum = to_vector(acc);
    expect_near(sum, secret, 1e-4f);
  }
}

TEST_P(DivideSchemes, SharesDifferFromSecret) {
  Rng rng(12);
  const Vector secret = random_vector(128, rng);
  const auto shares = divide(secret, 4, rng, GetParam());
  for (const auto& s : shares) {
    double diff = 0.0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      diff += std::abs(static_cast<double>(s[i] - secret[i]));
    }
    EXPECT_GT(diff, 1.0) << "a share equals the secret";
  }
}

TEST_P(DivideSchemes, MatchesReferenceContract) {
  const SplitScheme scheme = GetParam();
  // Dims straddle the kernel's 256-element blocks; 100k gives >= 1e5
  // samples for the distribution check.
  for (std::size_t dim : {0u, 1u, 255u, 256u, 257u, 100'000u}) {
    for (std::size_t n : {1u, 2u, 3u, 5u, 31u, 33u}) {
      SCOPED_TRACE(::testing::Message() << "dim=" << dim << " n=" << n);
      Rng data(1000 + dim + n);
      Vector secret = random_vector(dim, data);
      for (float& x : secret) {
        if (x == 0.0f) x = 1.0f;  // keep share/secret defined
      }
      Rng rng(7 * dim + n);
      const auto shares = divide(secret, n, rng, scheme);
      ASSERT_EQ(shares.size(), n);
      for (const Vector& s : shares) ASSERT_EQ(s.size(), dim);

      const double lo = 0.05 / (0.05 + static_cast<double>(n - 1));
      const double hi = 1.0 / (1.0 + 0.05 * static_cast<double>(n - 1));
      const double ulp = 0x1.0p-23;
      std::size_t bad_sum = 0, bad_ratio = 0, bad_mask = 0;
      for (std::size_t e = 0; e < dim; ++e) {
        const double x = secret[e];
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) sum += shares[i][e];
        const double bound =
            scheme == SplitScheme::kProportional
                ? ulp * std::abs(x)
                : ulp * (std::abs(x) + static_cast<double>(n));
        if (!(std::abs(sum - x) <= bound)) ++bad_sum;
        for (std::size_t i = 0; i < n; ++i) {
          const double s = shares[i][e];
          if (scheme == SplitScheme::kProportional) {
            const double ratio = s / x;
            if (!(ratio >= lo * (1 - ulp) && ratio <= hi * (1 + ulp))) {
              ++bad_ratio;
            }
          } else if (i + 1 < n && !(s >= -kMaskRange && s <= kMaskRange)) {
            ++bad_mask;
          }
        }
      }
      EXPECT_EQ(bad_sum, 0u) << "elements whose shares miss the secret";
      EXPECT_EQ(bad_ratio, 0u) << "fractions outside [0.05, 1)";
      EXPECT_EQ(bad_mask, 0u) << "masks outside [-1, 1]";

      if (dim >= 100'000) {
        Rng ref_rng(7 * dim + n);
        const auto ref = reference_divide(secret, n, ref_rng, scheme);
        const Moments got = per_index_moments(shares, secret, scheme);
        const Moments want = per_index_moments(ref, secret, scheme);
        // Tolerances sit at 4-8 standard errors of the difference of two
        // 1e5-element means.
        const bool prop = scheme == SplitScheme::kProportional;
        for (std::size_t i = 0; i < got.mean.size(); ++i) {
          EXPECT_NEAR(got.mean[i], want.mean[i], prop ? 0.005 : 0.02)
              << "share " << i;
          EXPECT_NEAR(got.mean_sq[i], want.mean_sq[i], prop ? 0.004 : 0.01)
              << "share " << i;
        }
      }
    }
  }
}

TEST_P(DivideSchemes, AdvancesCallerRngByOneDraw) {
  Rng data(4);
  for (std::size_t dim : {0u, 1u, 257u, 5000u}) {
    const Vector secret = random_vector(dim, data);
    for (std::size_t n : {1u, 2u, 33u}) {
      Rng used(99), expected(99);
      divide(secret, n, used, GetParam());
      expected.next_u64();
      EXPECT_EQ(used.next_u64(), expected.next_u64())
          << "dim=" << dim << " n=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, DivideSchemes,
                         ::testing::Values(SplitScheme::kProportional,
                                           SplitScheme::kUniformMask));

TEST(Divide, SingleShareIsSecret) {
  Rng rng(13);
  const Vector secret = random_vector(16, rng);
  const auto shares = divide(secret, 1, rng);
  ASSERT_EQ(shares.size(), 1u);
  expect_near(shares[0], secret, 1e-6f);
}

TEST(Divide, EmptySecretYieldsEmptyShares) {
  Rng rng(14);
  const Vector secret;
  const auto shares = divide(secret, 3, rng);
  ASSERT_EQ(shares.size(), 3u);
  for (const auto& s : shares) EXPECT_TRUE(s.empty());
}

TEST(Divide, DeterministicGivenRngState) {
  Rng data(3);
  const Vector small{1.0f, -2.0f, 3.5f};
  const Vector large = random_vector(1000, data);  // spans four blocks
  for (SplitScheme scheme :
       {SplitScheme::kProportional, SplitScheme::kUniformMask}) {
    for (const Vector* secret : {&small, &large}) {
      for (std::size_t n : {1u, 3u, 33u}) {
        Rng a(5), b(5);
        const auto sa = divide(*secret, n, a, scheme);
        const auto sb = divide(*secret, n, b, scheme);
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(0, std::memcmp(sa[i].data(), sb[i].data(),
                                   sa[i].size() * sizeof(float)))
              << "dim=" << secret->size() << " n=" << n << " share " << i;
        }
      }
    }
  }
}

// --- placement ----------------------------------------------------------------

/// The share indices all_replica_share_indices visits, in order.
std::vector<std::size_t> replica_share_indices(std::size_t j, std::size_t n,
                                               std::size_t k) {
  std::vector<std::size_t> out;
  all_replica_share_indices(j, n, k, [&out](std::size_t s) {
    out.push_back(s);
    return true;
  });
  return out;
}

TEST(Placement, NOutOfNIsSingleIndex) {
  for (std::size_t n : {1u, 3u, 7u}) {
    for (std::size_t j = 0; j < n; ++j) {
      const auto idx = replica_share_indices(j, n, n);
      ASSERT_EQ(idx.size(), 1u);
      EXPECT_EQ(idx[0], j);
    }
  }
}

TEST(Placement, ConsecutiveModularIndices) {
  const auto idx = replica_share_indices(3, 5, 3);  // n=5, k=3: 3 shares
  EXPECT_EQ(idx, (std::vector<std::size_t>{3, 4, 0}));
}

TEST(Placement, HoldersInvertIndices) {
  // Peer j holds share s  <=>  j is a holder of subtotal s.
  for (std::size_t n : {3u, 5u, 8u}) {
    for (std::size_t k = 1; k <= n; ++k) {
      std::vector<std::vector<bool>> holds(n, std::vector<bool>(n, false));
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t s : replica_share_indices(j, n, k)) {
          holds[j][s] = true;
        }
      }
      for (std::size_t s = 0; s < n; ++s) {
        const auto holders = subtotal_holders(s, n, k);
        EXPECT_EQ(holders.size(), n - k + 1);
        for (std::size_t j = 0; j < n; ++j) {
          const bool is_holder =
              std::find(holders.begin(), holders.end(), j) != holders.end();
          EXPECT_EQ(is_holder, holds[j][s])
              << "n=" << n << " k=" << k << " s=" << s << " j=" << j;
        }
      }
    }
  }
}

// --- SAC math -----------------------------------------------------------------

struct SacCase {
  std::size_t n;
  std::size_t dim;
};

class SacMath : public ::testing::TestWithParam<SacCase> {};

TEST_P(SacMath, MatchesPlainAverage) {
  Rng rng(21);
  const auto [n, dim] = GetParam();
  std::vector<Vector> models;
  for (std::size_t i = 0; i < n; ++i) models.push_back(random_vector(dim, rng));
  const Vector avg = sac_average(models, rng);
  expect_near(avg, plain_average(models), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SacMath,
    ::testing::Values(SacCase{1, 8}, SacCase{2, 8}, SacCase{3, 64},
                      SacCase{5, 64}, SacCase{10, 256}, SacCase{30, 16}));

TEST(FtSac, NoCrashesMatchesPlainAverage) {
  Rng rng(31);
  std::vector<Vector> models;
  for (int i = 0; i < 5; ++i) models.push_back(random_vector(32, rng));
  const auto r = fault_tolerant_sac_average(models, 3,
                                            std::vector<bool>(5, false), rng);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.alive, 5u);
  expect_near(r.average, plain_average(models), 1e-4f);
}

TEST(FtSac, CrashedPeersModelsStillIncluded) {
  // Fig. 3: Alice drops after sharing; her model still reaches the
  // average because her shares were already distributed.
  Rng rng(32);
  std::vector<Vector> models;
  for (int i = 0; i < 3; ++i) models.push_back(random_vector(32, rng));
  std::vector<bool> crashed{true, false, false};
  const auto r = fault_tolerant_sac_average(models, 2, crashed, rng);
  ASSERT_TRUE(r.ok);
  expect_near(r.average, plain_average(models), 1e-4f);
}

TEST(FtSac, PropertyAnyUpToNMinusKCrashesRecoverable) {
  Rng rng(33);
  for (std::size_t n : {3u, 5u, 7u}) {
    for (std::size_t k = 2; k <= n; ++k) {
      std::vector<Vector> models;
      for (std::size_t i = 0; i < n; ++i) {
        models.push_back(random_vector(8, rng));
      }
      // 50 random crash patterns with exactly n-k crashes.
      for (int trial = 0; trial < 50; ++trial) {
        std::vector<bool> crashed(n, false);
        std::vector<std::size_t> order(n);
        for (std::size_t i = 0; i < n; ++i) order[i] = i;
        rng.shuffle(order);
        for (std::size_t i = 0; i < n - k; ++i) crashed[order[i]] = true;
        const auto r = fault_tolerant_sac_average(models, k, crashed, rng);
        ASSERT_TRUE(r.ok) << "n=" << n << " k=" << k;
        expect_near(r.average, plain_average(models), 1e-4f);
      }
    }
  }
}

TEST(FtSac, ConsecutiveCrashBlockBelowQuorumFails) {
  // n-k+1 consecutive peers crashing wipes out every replica of the
  // subtotal they exclusively held.
  Rng rng(34);
  const std::size_t n = 5, k = 3;
  std::vector<Vector> models;
  for (std::size_t i = 0; i < n; ++i) models.push_back(random_vector(8, rng));
  std::vector<bool> crashed(n, false);
  // Holders of subtotal 2 are peers {2, 1, 0} (n-k+1 = 3 of them).
  crashed[0] = crashed[1] = crashed[2] = true;
  const auto r = fault_tolerant_sac_average(models, k, crashed, rng);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.alive, 2u);
}

TEST(FtSac, AllCrashedNotRecoverable) {
  Rng rng(35);
  std::vector<Vector> models{random_vector(4, rng), random_vector(4, rng)};
  const auto r = fault_tolerant_sac_average(models, 1,
                                            std::vector<bool>{true, true},
                                            rng);
  EXPECT_FALSE(r.ok);
}

TEST(FtSac, KEqualsOneSurvivesAllButOne) {
  Rng rng(36);
  const std::size_t n = 4;
  std::vector<Vector> models;
  for (std::size_t i = 0; i < n; ++i) models.push_back(random_vector(8, rng));
  for (std::size_t survivor = 0; survivor < n; ++survivor) {
    std::vector<bool> crashed(n, true);
    crashed[survivor] = false;
    const auto r = fault_tolerant_sac_average(models, 1, crashed, rng);
    ASSERT_TRUE(r.ok) << "survivor " << survivor;
    expect_near(r.average, plain_average(models), 1e-4f);
  }
}

}  // namespace
}  // namespace p2pfl::secagg
