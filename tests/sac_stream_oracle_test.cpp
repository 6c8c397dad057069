// Oracles for the streamed SAC. The math path (secagg/sac.hpp): the
// materializing sac_average and fault_tolerant_sac_average that the
// stream replaced are kept here verbatim, and the stream must match them
// bit for bit, and leave the caller's Rng at the same draw, at every
// worker count. The split's run kernel (ShareSplitter::split_run, whose
// 8 lanes run on an x86-64-v4 CPU) against split() block by block from a
// copy of the same splitter, in float shares and in the unrounded
// doubles behind them. The actor (secagg/sac_actor.hpp): a SacPeer
// splits straight into its bundles and regenerates a bundle for a resend,
// and divide() over a copy of its Rng is the oracle of every byte it
// sends and every share it keeps. The tests print once which vector
// level the split ran at.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/kernel_isa.hpp"
#include "common/parallel.hpp"
#include "net/mux.hpp"
#include "net/network.hpp"
#include "secagg/sac.hpp"
#include "secagg/sac_actor.hpp"
#include "secagg/shares.hpp"
#include "secagg/wire.hpp"

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

// Prints, once per run, the vector level the split ran at: split_run()'s
// lanes run only on an x86-64-v4 CPU, so a test log shows whether they
// were checked.
void note_isa() {
  static const bool noted = [] {
    std::cout << "[ share split ] running the " << isa_name(cpu_isa())
              << " build\n";
    return true;
  }();
  (void)noted;
}

// A secret of `dim` elements with mixed_models' magnitudes, and at a few
// places +-0.0, 1e-30 and 3e30.
Vector secret_of(std::size_t dim, std::uint64_t seed) {
  Vector x = mixed_models(1, dim, seed).front();
  const float edge[] = {0.0f, -0.0f, 1e-30f, -1e-30f, 3e30f, -3e30f};
  for (std::size_t i = 0; i < std::size(edge); ++i) {
    x[(i * 977 + seed) % dim] = edge[i];
  }
  return x;
}

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

// run_fl_experiment hands SAC views of its peers' parameters, so a model
// may start anywhere in memory. Here every model is a view into one
// shared buffer, at an odd offset with other data around it; both entry
// points must give the oracle's result over copies of the models.
TEST(SacStreamOracle, ViewsAtOffsetsMatchMaterializingForm) {
  const DefaultWorkersAtExit restore;
  for (SplitScheme scheme : kSchemes) {
    for (std::size_t n : {1u, 3u, 5u}) {
      for (std::size_t dim : {1u, 257u, 4099u}) {
        SCOPED_TRACE(::testing::Message()
                     << "scheme=" << static_cast<int>(scheme) << " n=" << n
                     << " dim=" << dim);
        const auto models = mixed_models(n, dim, 300 * n + dim);
        Vector buffer;
        std::vector<std::size_t> starts;
        for (std::size_t i = 0; i < n; ++i) {
          buffer.resize(buffer.size() + 2 * i + 1, 7.0f);
          starts.push_back(buffer.size());
          buffer.insert(buffer.end(), models[i].begin(), models[i].end());
        }
        buffer.resize(buffer.size() + 3, -7.0f);
        std::vector<ModelView> views;
        for (std::size_t start : starts) {
          views.push_back(ModelView(buffer).subspan(start, dim));
        }
        std::vector<bool> crashed(n, false);
        crashed[n - 1] = n > 1;
        const std::size_t k = n > 1 ? n - 1 : 1;

        Rng ref_rng(n * 31 + dim);
        const Vector want = reference_sac_average(models, ref_rng, scheme);
        const FtSacResult want_ft = reference_fault_tolerant_sac_average(
            models, k, crashed, ref_rng, scheme);
        const std::uint64_t want_next = ref_rng.next_u64();
        ASSERT_TRUE(want_ft.ok);
        for (std::size_t workers = 1; workers <= 4; ++workers) {
          set_parallel_workers(workers);
          Rng rng(n * 31 + dim);
          const Vector got = sac_average(views, rng, scheme);
          const FtSacResult got_ft =
              fault_tolerant_sac_average(views, k, crashed, rng, scheme);
          EXPECT_EQ(bit_mismatches(got, want), 0u) << "workers=" << workers;
          EXPECT_TRUE(got_ft.ok) << "workers=" << workers;
          EXPECT_EQ(bit_mismatches(got_ft.average, want_ft.average), 0u)
              << "workers=" << workers;
          EXPECT_EQ(rng.next_u64(), want_next) << "workers=" << workers;
        }
      }
    }
  }
}

TEST(SacStreamOracle, StreamedBlocksEqualDivide) {
  note_isa();
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

  // The streamed SAC's workers each skip to the first block of their
  // chunk and split it with split_run(). Cut as parallel_for_chunked cuts
  // a secret of 91 blocks over 1 to 4 workers, the chunks' lanes start
  // and end at every chunk edge, and the shares must still be divide()'s.
  {
    constexpr std::size_t kDim = 90 * kSplitBlock + 17;
    constexpr std::size_t kBlocks = 91;
    for (SplitScheme scheme : kSchemes) {
      for (std::size_t n : {1u, 3u, 5u}) {
        const Vector secret = secret_of(kDim, 60 + n);
        Rng divide_rng(700 + n);
        const auto want = divide(secret, n, divide_rng, scheme);
        for (std::size_t workers = 1; workers <= 4; ++workers) {
          SCOPED_TRACE(::testing::Message()
                       << "scheme=" << static_cast<int>(scheme) << " n=" << n
                       << " workers=" << workers);
          std::vector<Vector> got(n, Vector(kDim));
          std::vector<float*> out(n);
          std::vector<double> work;
          for (std::size_t w = 0; w < workers; ++w) {
            const std::size_t lo = kBlocks * w / workers;
            const std::size_t hi = kBlocks * (w + 1) / workers;
            Rng rng(700 + n);
            ShareSplitter chunk(n, scheme, rng);
            chunk.skip(lo);
            const std::size_t base = lo * kSplitBlock;
            const std::size_t len = std::min(hi * kSplitBlock, kDim) - base;
            for (std::size_t i = 0; i < n; ++i) out[i] = got[i].data() + base;
            chunk.split_run(std::span(secret).subspan(base, len), out, work);
          }
          for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(bit_mismatches(got[i], want[i]), 0u) << "share " << i;
          }
        }
      }
    }
  }
}

// split_run() against split() block by block, from copies of one
// splitter: runs of 8·Q full blocks, 8·Q + r full blocks, and either with
// a partial last block, so the lanes run alone, with split()'s leftover
// blocks after them, and end where split() ends.
TEST(SacStreamOracle, RunKernelEqualsBlockByBlockSplit) {
  note_isa();
  for (SplitScheme scheme : kSchemes) {
    for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 31u}) {
      for (std::size_t q : {1u, 2u, 3u, 9u, 25u}) {
        if (n == 31 && q > 3) continue;  // 31 shares of long runs add time
        for (std::size_t r : {0u, 5u}) {
          for (std::size_t partial : {0u, 77u}) {
            const std::size_t dim = (8 * q + r) * kSplitBlock + partial;
            SCOPED_TRACE(::testing::Message()
                         << "scheme=" << static_cast<int>(scheme)
                         << " n=" << n << " q=" << q << " r=" << r
                         << " partial=" << partial);
            const Vector x = secret_of(dim, 1000 * n + 10 * q + r + partial);
            Rng rng(31 * n + q + r);
            const ShareSplitter seeded(n, scheme, rng);

            ShareSplitter by_block = seeded;
            std::vector<Vector> want(n, Vector(dim));
            std::vector<float*> out(n);
            std::vector<double> work;
            for (std::size_t base = 0; base < dim; base += kSplitBlock) {
              for (std::size_t i = 0; i < n; ++i) {
                out[i] = want[i].data() + base;
              }
              by_block.split(
                  std::span(x).subspan(base, std::min(kSplitBlock, dim - base)),
                  out, work);
            }

            ShareSplitter by_run = seeded;
            std::vector<Vector> got(n, Vector(dim));
            for (std::size_t i = 0; i < n; ++i) out[i] = got[i].data();
            by_run.split_run(x, out, work);
            for (std::size_t i = 0; i < n; ++i) {
              ASSERT_EQ(bit_mismatches(got[i], want[i]), 0u) << "share " << i;
            }

            // Both splitters stand at the same draw: their next blocks
            // agree.
            const Vector next = secret_of(kSplitBlock, n + q);
            std::vector<Vector> after_block(n, Vector(kSplitBlock));
            std::vector<Vector> after_run(n, Vector(kSplitBlock));
            for (std::size_t i = 0; i < n; ++i) out[i] = after_block[i].data();
            by_block.split(next, out, work);
            for (std::size_t i = 0; i < n; ++i) out[i] = after_run[i].data();
            by_run.split(next, out, work);
            for (std::size_t i = 0; i < n; ++i) {
              ASSERT_EQ(bit_mismatches(after_run[i], after_block[i]), 0u)
                  << "next block, share " << i;
            }
          }
        }
      }
    }
  }
}

TEST(SacStreamOracle, RunKernelKeepsSplitsDoubleArithmetic) {
  // A float share hides most of the double arithmetic behind it: lanes
  // that compute f · x / Σf instead of f / Σf · x give the same float
  // almost everywhere. So the unrounded shares, the doubles split()
  // rounds, are held to split()'s block by block, and the float shares
  // split_run() writes are held to those doubles, rounded.
  note_isa();
  for (SplitScheme scheme : kSchemes) {
    for (std::size_t n : {1u, 2u, 3u, 5u}) {
      for (std::size_t q : {1u, 3u}) {
        for (std::size_t partial : {0u, 77u}) {
          const std::size_t dim = (8 * q + 1) * kSplitBlock + partial;
          SCOPED_TRACE(::testing::Message()
                       << "scheme=" << static_cast<int>(scheme) << " n=" << n
                       << " q=" << q << " partial=" << partial);
          const Vector x = secret_of(dim, 500 * n + 10 * q + partial);
          Rng rng(17 * n + q);
          const ShareSplitter seeded(n, scheme, rng);
          std::vector<double> work;

          ShareSplitter by_block = seeded;
          std::vector<std::vector<double>> want(n, std::vector<double>(dim));
          std::vector<double*> out(n);
          for (std::size_t base = 0; base < dim; base += kSplitBlock) {
            for (std::size_t i = 0; i < n; ++i) out[i] = want[i].data() + base;
            // One block is a run too short for the lanes: split()'s loop.
            by_block.split_run_unrounded(
                std::span(x).subspan(base, std::min(kSplitBlock, dim - base)),
                out, work);
          }

          ShareSplitter by_run = seeded;
          std::vector<std::vector<double>> got(n, std::vector<double>(dim));
          for (std::size_t i = 0; i < n; ++i) out[i] = got[i].data();
          by_run.split_run_unrounded(x, out, work);

          ShareSplitter rounded = seeded;
          std::vector<Vector> shares(n, Vector(dim));
          std::vector<float*> out_f(n);
          for (std::size_t i = 0; i < n; ++i) out_f[i] = shares[i].data();
          rounded.split_run(x, out_f, work);
          for (std::size_t i = 0; i < n; ++i) {
            std::size_t bad = 0, bad_rounding = 0;
            for (std::size_t e = 0; e < dim; ++e) {
              if (std::bit_cast<std::uint64_t>(got[i][e]) !=
                  std::bit_cast<std::uint64_t>(want[i][e])) {
                ++bad;
              }
              if (std::bit_cast<std::uint32_t>(
                      static_cast<float>(want[i][e])) !=
                  std::bit_cast<std::uint32_t>(shares[i][e])) {
                ++bad_rounding;
              }
            }
            ASSERT_EQ(bad, 0u) << "share " << i;
            ASSERT_EQ(bad_rounding, 0u) << "share " << i;
          }
        }
      }
    }
  }
}

// --- the actor's split against divide() --------------------------------------

constexpr char kChannel[] = "sac/oracle";

/// One SacPeer at position `pos` of an n-peer group on the simulator.
/// Every other position is a bare host that records the share bundles
/// (as their bytes) and the subtotals that reach it, and can send the
/// peer what the test scripts.
struct LoneSacPeer {
  LoneSacPeer(std::size_t n, std::size_t pos, SacActorOptions opts)
      : sim(17), net(sim, {.base_latency = kMillisecond}), pos(pos) {
    opts.share_timeout = 3600 * kSecond;  // no retry unless scripted
    for (PeerId id = 0; id < n; ++id) {
      group.push_back(id);
      hosts.push_back(std::make_unique<net::PeerHost>());
      net.attach(id, hosts.back().get());
      if (id == pos) continue;
      hosts.back()->route(std::string(kChannel) + "/share",
                          [this, id](const net::Envelope& env) {
                            bundles[id].push_back(encode_wire(
                                *net::payload<SacShareMsg>(env.body)));
                          });
      hosts.back()->route(std::string(kChannel) + "/subtotal",
                          [this](const net::Envelope& env) {
                            const auto* m =
                                net::payload<SacSubtotalMsg>(env.body);
                            subtotals[m->idx] = m->value;
                          });
    }
    peer = std::make_unique<SacPeer>(static_cast<PeerId>(pos), kChannel,
                                     opts, net, *hosts[pos]);
    peer->on_complete = [this](RoundId, const Vector& avg) { average = avg; };
  }

  /// The peer's generator before its first round: SacPeer forks it from
  /// the network's root Rng with this salt.
  Rng peer_rng() {
    return sim.rng().fork(0x7361'63ULL ^ (pos * 2654435761ULL));
  }

  /// Position `from` sends the peer a bundle of zeros for every share
  /// index the peer holds (with a matching commitment when `commit`),
  /// so each of the peer's subtotals equals its own share.
  void send_zero_bundle(std::size_t from, std::size_t k, std::size_t dim,
                        bool commit) {
    SacShareMsg zeros;
    zeros.round = 1;
    zeros.from_pos = static_cast<std::uint32_t>(from);
    all_replica_share_indices(pos, group.size(), k, [&](std::size_t s) {
      zeros.parts.emplace_back(static_cast<std::uint32_t>(s), Vector(dim));
      return true;
    });
    if (commit) {
      zeros.commit.assign(group.size(), wire::share_digest(Vector(dim)));
    }
    const net::WireSize w = wire::share_wire(zeros.parts.size(), 4 * dim,
                                             dim, zeros.commit.size());
    net.send(group[from], group[pos], std::string(kChannel) + "/share",
             std::move(zeros), w);
  }

  sim::Simulator sim;
  net::Network net;
  std::size_t pos;
  std::vector<PeerId> group;
  std::vector<std::unique_ptr<net::PeerHost>> hosts;
  std::unique_ptr<SacPeer> peer;
  std::map<std::size_t, std::vector<Bytes>> bundles;  // by receiving position
  std::map<std::size_t, Vector> subtotals;            // by share index
  Vector average;
};

/// The bundle today's rule sends `dest` from the shares divide() gave:
/// its held shares, each element plus `offset`, and with `detect` the
/// commitment to all n shares, recomputed for the perturbed parts.
Bytes expected_bundle(const std::vector<Vector>& shares, std::size_t from,
                      std::size_t dest, std::size_t k, bool detect,
                      float offset = 0.0f) {
  const std::size_t n = shares.size();
  SacShareMsg msg;
  msg.round = 1;
  msg.from_pos = static_cast<std::uint32_t>(from);
  all_replica_share_indices(dest, n, k, [&](std::size_t s) {
    Vector data = shares[s];
    if (offset != 0.0f) {
      for (float& v : data) v += offset;
    }
    msg.parts.emplace_back(static_cast<std::uint32_t>(s), std::move(data));
    return true;
  });
  if (detect) {
    for (const Vector& share : shares) {
      msg.commit.push_back(wire::share_digest(share));
    }
    if (offset != 0.0f) {
      for (const auto& [idx, data] : msg.parts) {
        msg.commit[idx] = wire::share_digest(data);
      }
    }
  }
  return encode_wire(msg);
}

/// What a subtotal holds when the share is the only nonzero one: the
/// share itself, with -0.0 summed to +0.0.
Vector alone_in_subtotal(const Vector& share) {
  std::vector<double> acc(share.size(), 0.0);
  accumulate(acc, share);
  return to_vector(acc);
}

/// n with k = n and a k < n, the peer last in the group and the leader
/// first: every (n, k) placement shape up to n = 5.
struct Shape {
  std::size_t n, k;
};
constexpr Shape kShapes[] = {{1, 1}, {2, 2}, {2, 1}, {3, 3},
                             {3, 2}, {5, 5}, {5, 3}};
/// Below the 8 full blocks split_run()'s lanes need, and above them: 26
/// full blocks (3 lanes' worth and 2 left over) and a partial one.
constexpr std::size_t kActorDims[] = {4 * kSplitBlock + 3,
                                      26 * kSplitBlock + 5};

TEST(SacStreamOracle, ActorSendsAndKeepsDivideShares) {
  note_isa();
  for (const std::size_t dim : kActorDims) {
    for (const Shape shape : kShapes) {
      for (const bool detect : {false, true}) {
        const std::size_t n = shape.n, k = shape.k, pos = n - 1;
        SCOPED_TRACE(::testing::Message() << "dim=" << dim << " n=" << n
                                          << " k=" << k
                                          << " detect=" << detect);
        SacActorOptions opts;
        opts.detect_inconsistent_shares = detect;
        LoneSacPeer s(n, pos, opts);
        const Vector model = mixed_models(1, dim, 31 * n + k + dim).front();
        Rng oracle_rng = s.peer_rng();
        const std::vector<Vector> shares = divide(model, n, oracle_rng);

        s.peer->begin_round(1, model, s.group, /*leader_pos=*/0, k);
        s.sim.run_for(50 * kMillisecond);
        for (std::size_t j = 0; j + 1 < n; ++j) {
          ASSERT_EQ(s.bundles[j].size(), 1u) << "to " << j;
          EXPECT_EQ(s.bundles[j][0], expected_bundle(shares, pos, j, k, detect))
              << "to " << j;
        }
        if (n == 1) {
          // Alone, the peer leads and its average is its one subtotal,
          // its one share.
          EXPECT_EQ(bit_mismatches(s.average, alone_in_subtotal(shares[0])),
                    0u);
          continue;
        }
        // With every other contribution zero, each held subtotal is the
        // peer's own share: ask the peer for each one.
        for (std::size_t j = 0; j + 1 < n; ++j) {
          s.send_zero_bundle(j, k, dim, detect);
        }
        s.sim.run_for(50 * kMillisecond);
        std::size_t held = 0;
        all_replica_share_indices(pos, n, k, [&](std::size_t idx) {
          s.net.send(s.group[0], s.group[pos],
                     std::string(kChannel) + "/request",
                     SacSubtotalReq{1, static_cast<std::uint32_t>(idx), 0},
                     wire::kSubtotalReqWire);
          ++held;
          return true;
        });
        s.sim.run_for(50 * kMillisecond);
        ASSERT_EQ(s.subtotals.size(), held);
        for (const auto& [idx, value] : s.subtotals) {
          EXPECT_EQ(bit_mismatches(value, alone_in_subtotal(shares[idx])), 0u)
              << "held share " << idx;
        }
      }
    }
  }
}

TEST(SacStreamOracle, ActorResendEqualsFirstSend) {
  note_isa();
  for (const std::size_t dim : kActorDims) {
    for (const Shape shape : kShapes) {
      if (shape.n == 1) continue;  // nobody to resend to
      for (const bool detect : {false, true}) {
        const std::size_t n = shape.n, k = shape.k, pos = n - 1;
        SCOPED_TRACE(::testing::Message() << "dim=" << dim << " n=" << n
                                          << " k=" << k
                                          << " detect=" << detect);
        SacActorOptions opts;
        opts.detect_inconsistent_shares = detect;
        LoneSacPeer s(n, pos, opts);
        s.peer->begin_round(1, mixed_models(1, dim, 7 * n + k + dim).front(),
                            s.group, /*leader_pos=*/0, k);
        s.sim.run_for(50 * kMillisecond);
        for (int ask = 0; ask < 2; ++ask) {
          for (std::size_t j = 0; j + 1 < n; ++j) {
            s.net.send(s.group[j], s.group[pos],
                       std::string(kChannel) + "/share_req",
                       SacShareReq{1, static_cast<std::uint32_t>(j)},
                       wire::kShareReqWire);
          }
          s.sim.run_for(50 * kMillisecond);
        }
        for (std::size_t j = 0; j + 1 < n; ++j) {
          ASSERT_EQ(s.bundles[j].size(), 3u) << "to " << j;
          EXPECT_EQ(s.bundles[j][1], s.bundles[j][0]) << "to " << j;
          EXPECT_EQ(s.bundles[j][2], s.bundles[j][0]) << "to " << j;
        }
      }
    }
  }
}

TEST(SacStreamOracle, ActorAttacksSendTheOffsetRuleOverDivideShares) {
  note_isa();
  constexpr double kMagnitude = 0.75;
  for (const std::size_t dim : kActorDims) {
    for (const Shape shape : kShapes) {
      if (shape.n == 1) continue;
      for (const bool detect : {false, true}) {
        const std::size_t n = shape.n, k = shape.k, pos = n - 1;
        SCOPED_TRACE(::testing::Message() << "dim=" << dim << " n=" << n
                                          << " k=" << k
                                          << " detect=" << detect);
        const Vector model = mixed_models(1, dim, 13 * n + k + dim).front();

        // Inconsistent shares: every odd holder gets shares + magnitude.
        robust::ByzantineRegistry liar;
        liar.activate(static_cast<PeerId>(pos),
                      {robust::AttackKind::kInconsistentShares, kMagnitude});
        SacActorOptions opts;
        opts.detect_inconsistent_shares = detect;
        opts.byzantine = &liar;
        {
          LoneSacPeer s(n, pos, opts);
          Rng oracle_rng = s.peer_rng();
          const std::vector<Vector> shares = divide(model, n, oracle_rng);
          s.peer->begin_round(1, model, s.group, /*leader_pos=*/0, k);
          s.sim.run_for(50 * kMillisecond);
          for (std::size_t j = 0; j + 1 < n; ++j) {
            const float offset = j % 2 == 1 ? static_cast<float>(kMagnitude)
                                            : 0.0f;
            ASSERT_EQ(s.bundles[j].size(), 1u) << "to " << j;
            EXPECT_EQ(s.bundles[j][0],
                      expected_bundle(shares, pos, j, k, detect, offset))
                << "to " << j;
          }
        }

        // Equivocation: the first send is honest, the i-th resend adds
        // i * magnitude.
        robust::ByzantineRegistry equivocator;
        equivocator.activate(static_cast<PeerId>(pos),
                             {robust::AttackKind::kEquivocate, kMagnitude});
        opts.byzantine = &equivocator;
        LoneSacPeer s(n, pos, opts);
        Rng oracle_rng = s.peer_rng();
        const std::vector<Vector> shares = divide(model, n, oracle_rng);
        s.peer->begin_round(1, model, s.group, /*leader_pos=*/0, k);
        s.sim.run_for(50 * kMillisecond);
        std::size_t resends = 0;
        for (int ask = 0; ask < 2; ++ask) {
          for (std::size_t j = 0; j + 1 < n; ++j) {
            s.net.send(s.group[j], s.group[pos],
                       std::string(kChannel) + "/share_req",
                       SacShareReq{1, static_cast<std::uint32_t>(j)},
                       wire::kShareReqWire);
            s.sim.run_for(50 * kMillisecond);
            ++resends;
            const float offset = static_cast<float>(kMagnitude) *
                                 static_cast<float>(resends);
            ASSERT_EQ(s.bundles[j].size(), static_cast<std::size_t>(ask) + 2)
                << "to " << j;
            EXPECT_EQ(s.bundles[j].back(),
                      expected_bundle(shares, pos, j, k, detect, offset))
                << "to " << j << ", resend " << resends;
          }
        }
        for (std::size_t j = 0; j + 1 < n; ++j) {
          EXPECT_EQ(s.bundles[j][0], expected_bundle(shares, pos, j, k, detect))
              << "to " << j;
        }
      }
    }
  }
}

TEST(SacStreamOracle, ActorPartsOfAShareReferToOneBuffer) {
  // At k < n a share rides in n − k + 1 bundles, and every part that
  // holds it refers to the one row it was split into (of a buffer shared
  // with the other shares when the model is small, of its own when it is
  // large). A perturbed part (inconsistent shares to odd positions,
  // equivocation on resends) gets a buffer of its own, leaving the other
  // holders' parts as divide() gave them, and a resend is split again
  // into buffers of its own.
  note_isa();
  constexpr double kMagnitude = 0.75;
  const robust::AttackKind attacks[] = {
      robust::AttackKind::kNone, robust::AttackKind::kInconsistentShares,
      robust::AttackKind::kEquivocate};
  for (const std::size_t dim : {std::size_t{5}, kActorDims[1]}) {
    for (const Shape shape : {Shape{4, 2}, Shape{5, 3}}) {
      for (const robust::AttackKind attack : attacks) {
        const std::size_t n = shape.n, k = shape.k, pos = n - 1;
        SCOPED_TRACE(::testing::Message() << "dim=" << dim << " n=" << n
                                          << " k=" << k << " attack="
                                          << static_cast<int>(attack));
        robust::ByzantineRegistry registry;
        if (attack != robust::AttackKind::kNone) {
          registry.activate(static_cast<PeerId>(pos), {attack, kMagnitude});
        }
        SacActorOptions opts;
        opts.byzantine = &registry;
        LoneSacPeer s(n, pos, opts);
        // Keep every bundle as the typed message, so its parts keep
        // referring to the buffers the peer sent.
        std::map<std::size_t, std::vector<SacShareMsg>> got;
        for (std::size_t j = 0; j + 1 < n; ++j) {
          s.hosts[j]->route(std::string(kChannel) + "/share",
                            [&got, j](const net::Envelope& env) {
                              got[j].push_back(
                                  *net::payload<SacShareMsg>(env.body));
                            });
        }
        const Vector model = mixed_models(1, dim, 41 * n + k).front();
        Rng oracle_rng = s.peer_rng();
        const std::vector<Vector> shares = divide(model, n, oracle_rng);
        s.peer->begin_round(1, model, s.group, /*leader_pos=*/0, k);
        s.sim.run_for(50 * kMillisecond);
        for (std::size_t j = 0; j + 1 < n; ++j) {
          s.net.send(s.group[j], s.group[pos],
                     std::string(kChannel) + "/share_req",
                     SacShareReq{1, static_cast<std::uint32_t>(j)},
                     wire::kShareReqWire);
          s.sim.run_for(50 * kMillisecond);
        }

        // First sends: the unperturbed parts of share s share one row and
        // hold divide()'s share s; a perturbed part holds its own.
        std::map<std::size_t, const float*> buffer_of;
        std::size_t shared_parts = 0;
        for (std::size_t j = 0; j + 1 < n; ++j) {
          ASSERT_EQ(got[j].size(), 2u) << "to " << j;
          if (attack == robust::AttackKind::kInconsistentShares &&
              j % 2 == 1) {
            continue;
          }
          for (const auto& [idx, data] : got[j][0].parts) {
            EXPECT_EQ(bit_mismatches(Vector(data.begin(), data.end()),
                                     shares[idx]),
                      0u)
                << "to " << j << ", share " << idx;
            const auto [it, first] = buffer_of.emplace(idx, data.data());
            if (!first) {
              EXPECT_EQ(data.data(), it->second)
                  << "to " << j << ", share " << idx;
              ++shared_parts;
            }
          }
        }
        EXPECT_GT(shared_parts, 0u);
        for (std::size_t j = 0; j + 1 < n; ++j) {
          // A perturbed part and every resent one hold buffers of their own.
          for (std::size_t send = 0; send < 2; ++send) {
            const bool perturbed =
                attack == robust::AttackKind::kInconsistentShares && j % 2 == 1;
            if (send == 0 && !perturbed) continue;
            for (const auto& [idx, data] : got[j][send].parts) {
              if (buffer_of.count(idx) > 0) {
                EXPECT_NE(data.data(), buffer_of[idx])
                    << "to " << j << ", send " << send << ", share " << idx;
              }
            }
          }
          // Inconsistent shares depend on the holder alone, so a resend
          // repeats the first send; equivocation shifts resend i by i times
          // the magnitude.
          if (attack == robust::AttackKind::kEquivocate) {
            const float offset = static_cast<float>(kMagnitude) *
                                 static_cast<float>(j + 1);
            EXPECT_EQ(encode_wire(got[j][1]),
                      expected_bundle(shares, pos, j, k, false, offset))
                << "to " << j;
          } else {
            EXPECT_EQ(encode_wire(got[j][1]), encode_wire(got[j][0]))
                << "to " << j;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace p2pfl::secagg
