// Oracle for the streamed SAC (secagg/sac.hpp): the materializing
// sac_average and fault_tolerant_sac_average that the stream replaced
// are kept here verbatim, and the stream must match them bit for bit,
// and leave the caller's Rng at the same draw, at every worker count.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/parallel.hpp"
#include "secagg/sac.hpp"
#include "secagg/shares.hpp"

namespace p2pfl::secagg {
namespace {

// --- the materializing form (the oracle) ------------------------------------

Vector reference_sac_average(std::span<const Vector> models, Rng& rng,
                             SplitScheme scheme) {
  P2PFL_CHECK(!models.empty());
  const std::size_t n = models.size();
  const std::size_t dim = models.front().size();

  // Subtotal s accumulates share s of every peer's model; summing the
  // subtotals reproduces the sum of the models (Eq. 1-3).
  std::vector<std::vector<double>> subtotal(n, std::vector<double>(dim, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    P2PFL_CHECK(models[i].size() == dim);
    const auto shares = divide(models[i], n, rng, scheme);
    for (std::size_t s = 0; s < n; ++s) accumulate(subtotal[s], shares[s]);
  }
  std::vector<double> total(dim, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    accumulate(total, to_vector(subtotal[s]));
  }
  return to_vector(total, static_cast<double>(n));
}

FtSacResult reference_fault_tolerant_sac_average(
    std::span<const Vector> models, std::size_t k,
    const std::vector<bool>& crashed_after_sharing, Rng& rng,
    SplitScheme scheme) {
  P2PFL_CHECK(!models.empty());
  const std::size_t n = models.size();
  P2PFL_CHECK(k >= 1 && k <= n);
  P2PFL_CHECK(crashed_after_sharing.size() == n);
  const std::size_t dim = models.front().size();

  FtSacResult result;
  for (std::size_t j = 0; j < n; ++j) {
    if (!crashed_after_sharing[j]) ++result.alive;
  }
  if (result.alive == 0) return result;

  // Share phase completed before any crash: every peer's shares exist.
  std::vector<std::vector<Vector>> shares;  // shares[i][s]
  shares.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    P2PFL_CHECK(models[i].size() == dim);
    shares.push_back(divide(models[i], n, rng, scheme));
  }

  // Reconstruction: each subtotal must be obtainable from a live holder.
  std::vector<double> total(dim, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    bool have = false;
    for (std::size_t holder : subtotal_holders(s, n, k)) {
      if (!crashed_after_sharing[holder]) {
        have = true;
        break;
      }
    }
    if (!have) return result;  // ok stays false
    std::vector<double> sub(dim, 0.0);
    for (std::size_t i = 0; i < n; ++i) accumulate(sub, shares[i][s]);
    accumulate(total, to_vector(sub));
  }
  result.ok = true;
  result.average = to_vector(total, static_cast<double>(n));
  return result;
}

// --- helpers -----------------------------------------------------------------

// Restores the hardware-default worker count when a test ends.
struct DefaultWorkersAtExit {
  ~DefaultWorkersAtExit() { set_parallel_workers(0); }
};

// Magnitudes spread over twelve decades, with +0.0 and -0.0 mixed in.
// At a tenth of the elements peers 0 and 1 hold +2^31 and -2^31, which
// kUniformMask turns into last shares that cancel exactly: a subtotal
// then rounds differently if the small shares are added before them, so
// the peer order of the sums shows in the average.
std::vector<Vector> mixed_models(std::size_t n, std::size_t dim,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vector> models(n, Vector(dim));
  for (std::size_t e = 0; e < dim; ++e) {
    const bool cancel = n >= 3 && rng.uniform(0.0, 1.0) < 0.1;
    for (std::size_t i = 0; i < n; ++i) {
      float& x = models[i][e];
      const double u = rng.uniform(0.0, 1.0);
      if (cancel && i < 2) {
        x = i == 0 ? 0x1.0p31f : -0x1.0p31f;
      } else if (u < 0.05) {
        x = 0.0f;
      } else if (u < 0.10) {
        x = -0.0f;
      } else {
        x = static_cast<float>(rng.normal(0.0, 1.0) *
                               std::pow(10.0, rng.uniform(-6.0, 6.0)));
      }
    }
  }
  return models;
}

// Elements whose bit patterns differ (so +0.0 against -0.0 counts).
std::size_t bit_mismatches(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return std::max(a.size(), b.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i])) {
      ++bad;
    }
  }
  return bad;
}

constexpr SplitScheme kSchemes[] = {SplitScheme::kProportional,
                                    SplitScheme::kUniformMask};

// --- tests -------------------------------------------------------------------

TEST(SacStreamOracle, SacAverageMatchesMaterializingForm) {
  const DefaultWorkersAtExit restore;
  for (SplitScheme scheme : kSchemes) {
    for (std::size_t n : {1u, 2u, 3u, 5u, 7u, 31u}) {
      for (std::size_t dim : {1u, 255u, 256u, 257u, 4099u, 100'000u}) {
        // 31 × 31 shares of 100k floats would add seconds and no
        // coverage: n = 31 streams 17 blocks at dim 4099.
        if (n == 31 && dim == 100'000) continue;
        SCOPED_TRACE(::testing::Message()
                     << "scheme=" << static_cast<int>(scheme) << " n=" << n
                     << " dim=" << dim);
        const auto models = mixed_models(n, dim, 100 * n + dim);
        Rng ref_rng(n * 7919 + dim);
        const Vector want = reference_sac_average(models, ref_rng, scheme);
        const std::uint64_t want_next = ref_rng.next_u64();
        for (std::size_t workers = 1; workers <= 4; ++workers) {
          set_parallel_workers(workers);
          Rng rng(n * 7919 + dim);
          const Vector got = sac_average(models, rng, scheme);
          EXPECT_EQ(bit_mismatches(got, want), 0u) << "workers=" << workers;
          EXPECT_EQ(rng.next_u64(), want_next) << "workers=" << workers;
        }
      }
    }
  }
}

TEST(SacStreamOracle, FaultTolerantMatchesOnEveryCrashPattern) {
  const DefaultWorkersAtExit restore;
  constexpr std::size_t kDim = 257;  // a full block and a partial one
  for (SplitScheme scheme : kSchemes) {
    for (std::size_t n = 1; n <= 5; ++n) {
      const auto models = mixed_models(n, kDim, 40 + n);
      for (std::size_t k = 1; k <= n; ++k) {
        // Every crash pattern: below quorum and all crashed included.
        for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
          SCOPED_TRACE(::testing::Message()
                       << "scheme=" << static_cast<int>(scheme)
                       << " n=" << n << " k=" << k << " mask=" << mask);
          std::vector<bool> crashed(n);
          for (std::size_t j = 0; j < n; ++j) crashed[j] = (mask >> j) & 1;
          Rng ref_rng(1000 * n + 10 * k + mask);
          const FtSacResult want = reference_fault_tolerant_sac_average(
              models, k, crashed, ref_rng, scheme);
          const std::uint64_t want_next = ref_rng.next_u64();
          for (std::size_t workers = 1; workers <= 4; ++workers) {
            set_parallel_workers(workers);
            Rng rng(1000 * n + 10 * k + mask);
            const FtSacResult got =
                fault_tolerant_sac_average(models, k, crashed, rng, scheme);
            EXPECT_EQ(got.ok, want.ok) << "workers=" << workers;
            EXPECT_EQ(got.alive, want.alive) << "workers=" << workers;
            EXPECT_EQ(bit_mismatches(got.average, want.average), 0u)
                << "workers=" << workers;
            EXPECT_EQ(rng.next_u64(), want_next) << "workers=" << workers;
          }
        }
      }
    }
  }
}

TEST(SacStreamOracle, FaultTolerantMatchesAtLargeSizes) {
  const DefaultWorkersAtExit restore;
  for (SplitScheme scheme : kSchemes) {
    for (std::size_t n : {7u, 31u}) {
      for (std::size_t dim : {1u, 256u, 4099u, 100'000u}) {
        if (n == 31 && dim == 100'000) continue;  // as in the test above
        SCOPED_TRACE(::testing::Message()
                     << "scheme=" << static_cast<int>(scheme) << " n=" << n
                     << " dim=" << dim);
        const auto models = mixed_models(n, dim, 7 * n + dim);
        // Two crashes, k = n - 2: the average is still recoverable.
        std::vector<bool> crashed(n, false);
        crashed[0] = crashed[n / 2] = true;
        Rng ref_rng(n + 31 * dim);
        const FtSacResult want = reference_fault_tolerant_sac_average(
            models, n - 2, crashed, ref_rng, scheme);
        ASSERT_TRUE(want.ok);
        const std::uint64_t want_next = ref_rng.next_u64();
        for (std::size_t workers = 1; workers <= 4; ++workers) {
          set_parallel_workers(workers);
          Rng rng(n + 31 * dim);
          const FtSacResult got =
              fault_tolerant_sac_average(models, n - 2, crashed, rng, scheme);
          EXPECT_TRUE(got.ok) << "workers=" << workers;
          EXPECT_EQ(bit_mismatches(got.average, want.average), 0u)
              << "workers=" << workers;
          EXPECT_EQ(rng.next_u64(), want_next) << "workers=" << workers;
        }
      }
    }
  }
}

TEST(SacStreamOracle, StreamedBlocksEqualDivide) {
  for (SplitScheme scheme : kSchemes) {
    for (std::size_t n : {1u, 2u, 5u, 31u}) {
      constexpr std::size_t kDim = 4 * kSplitBlock + 3;
      SCOPED_TRACE(::testing::Message()
                   << "scheme=" << static_cast<int>(scheme) << " n=" << n);
      const Vector secret = mixed_models(1, kDim, n).front();
      Rng divide_rng(500 + n);
      const auto want = divide(secret, n, divide_rng, scheme);

      // A splitter that splits every block in turn, and one per block
      // that skips straight to it: both must write divide()'s shares.
      Rng rng(500 + n);
      ShareSplitter in_turn(n, scheme, rng);
      EXPECT_EQ(rng.next_u64(), divide_rng.next_u64());
      std::vector<Vector> got(n, Vector(kDim));
      std::vector<Vector> skipped(n, Vector(kDim));
      std::vector<float*> out(n);
      std::vector<double> work;
      for (std::size_t b = 0; b * kSplitBlock < kDim; ++b) {
        const std::size_t base = b * kSplitBlock;
        const auto block = std::span(secret).subspan(
            base, std::min(kSplitBlock, kDim - base));
        for (std::size_t i = 0; i < n; ++i) out[i] = got[i].data() + base;
        in_turn.split(block, out, work);

        Rng fresh(500 + n);
        ShareSplitter jumper(n, scheme, fresh);
        jumper.skip(b);
        for (std::size_t i = 0; i < n; ++i) out[i] = skipped[i].data() + base;
        jumper.split(block, out, work);
      }
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(bit_mismatches(got[i], want[i]), 0u) << "share " << i;
        EXPECT_EQ(bit_mismatches(skipped[i], want[i]), 0u) << "share " << i;
      }
    }
  }
}

}  // namespace
}  // namespace p2pfl::secagg
