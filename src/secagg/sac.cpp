#include "secagg/sac.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace p2pfl::secagg {

std::vector<std::size_t> subtotal_holders(std::size_t s, std::size_t n,
                                          std::size_t k) {
  P2PFL_CHECK(n >= 1 && k >= 1 && k <= n && s < n);
  std::vector<std::size_t> out;
  out.reserve(n - k + 1);
  // Peers j with s in {j, ..., j+n-k}  <=>  j in {s-(n-k), ..., s} mod n.
  for (std::size_t d = 0; d <= n - k; ++d) out.push_back((s + n - d) % n);
  return out;
}

namespace {

// Blocks per run of the stream: enough for the split's 8 lanes to run 8
// blocks each, few enough that a worker's shares and subtotals of a run
// stay in its L2.
constexpr std::size_t kRunBlocks = 64;

// Alg. 2's average in one streamed pass over the model (DESIGN.md,
// "Math-path round"). Per run of blocks, each peer's shares, in peer
// order, are added into n double subtotals that start at 0.0; per element
// the subtotals, each rounded to float, are summed in share order and the
// sum divided by n. That is the arithmetic of materializing every share
// and subtotal, element for element, with O(n·kRunBlocks·kSplitBlock)
// scratch per worker. `seeded` holds peer i's splitter, positioned at
// block 0; a worker copies them and skips to its first block, so the
// result does not depend on the worker count.
Vector streamed_average(std::span<const ModelView> models,
                        const std::vector<ShareSplitter>& seeded) {
  const std::size_t n = models.size();
  const std::size_t dim = models.front().size();
  const std::size_t blocks = (dim + kSplitBlock - 1) / kSplitBlock;
  Vector out(dim);
  parallel_for_chunked(0, blocks, [&](std::size_t lo, std::size_t hi) {
    std::vector<ShareSplitter> splitters = seeded;
    for (ShareSplitter& s : splitters) s.skip(lo);
    const std::size_t cap =
        std::min(hi - lo, kRunBlocks) * kSplitBlock;  // elements per run
    std::vector<float> shares(n * cap);
    std::vector<float*> rows(n);
    for (std::size_t s = 0; s < n; ++s) rows[s] = shares.data() + s * cap;
    std::vector<double> subtotal(n * cap);
    std::vector<double> total(cap);
    std::vector<double> work;
    for (std::size_t b = lo; b < hi; b += kRunBlocks) {
      const std::size_t base = b * kSplitBlock;
      const std::size_t len =
          std::min(std::min(hi - b, kRunBlocks) * kSplitBlock, dim - base);
      std::fill(subtotal.begin(), subtotal.end(), 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        splitters[i].split_run(models[i].subspan(base, len), rows, work);
        for (std::size_t s = 0; s < n; ++s) {
          const float* share = rows[s];
          double* sub = subtotal.data() + s * cap;
          for (std::size_t e = 0; e < len; ++e) {
            sub[e] += static_cast<double>(share[e]);
          }
        }
      }
      std::fill_n(total.begin(), len, 0.0);
      for (std::size_t s = 0; s < n; ++s) {
        const double* sub = subtotal.data() + s * cap;
        for (std::size_t e = 0; e < len; ++e) {
          total[e] += static_cast<double>(static_cast<float>(sub[e]));
        }
      }
      for (std::size_t e = 0; e < len; ++e) {
        out[base + e] =
            static_cast<float>(total[e] / static_cast<double>(n));
      }
    }
  });
  return out;
}

// Each peer's splitter, seeded in peer order: one rng draw per peer.
std::vector<ShareSplitter> seed_splitters(std::span<const ModelView> models,
                                          Rng& rng, SplitScheme scheme) {
  const std::size_t n = models.size();
  std::vector<ShareSplitter> splitters;
  splitters.reserve(n);
  for (const ModelView& m : models) {
    P2PFL_CHECK(m.size() == models.front().size());
    splitters.emplace_back(n, scheme, rng);
  }
  return splitters;
}

}  // namespace

Vector sac_average(std::span<const ModelView> models, Rng& rng,
                   SplitScheme scheme) {
  P2PFL_CHECK(!models.empty());
  // Subtotal s sums share s of every peer's model; summing the subtotals
  // reproduces the sum of the models (Eq. 1-3).
  return streamed_average(models, seed_splitters(models, rng, scheme));
}

FtSacResult fault_tolerant_sac_average(
    std::span<const ModelView> models, std::size_t k,
    const std::vector<bool>& crashed_after_sharing, Rng& rng,
    SplitScheme scheme) {
  P2PFL_CHECK(!models.empty());
  const std::size_t n = models.size();
  P2PFL_CHECK(k >= 1 && k <= n);
  P2PFL_CHECK(crashed_after_sharing.size() == n);

  FtSacResult result;
  for (std::size_t j = 0; j < n; ++j) {
    if (!crashed_after_sharing[j]) ++result.alive;
  }
  if (result.alive == 0) return result;

  // Share phase completed before any crash: every peer split its model.
  const std::vector<ShareSplitter> splitters =
      seed_splitters(models, rng, scheme);

  // Reconstruction: each subtotal must be obtainable from a live holder.
  for (std::size_t s = 0; s < n; ++s) {
    bool have = false;
    for (std::size_t holder : subtotal_holders(s, n, k)) {
      if (!crashed_after_sharing[holder]) {
        have = true;
        break;
      }
    }
    if (!have) return result;  // ok stays false
  }
  result.ok = true;
  result.average = streamed_average(models, splitters);
  return result;
}

Vector sac_average(std::span<const Vector> models, Rng& rng,
                   SplitScheme scheme) {
  const std::vector<ModelView> views(models.begin(), models.end());
  return sac_average(views, rng, scheme);
}

FtSacResult fault_tolerant_sac_average(
    std::span<const Vector> models, std::size_t k,
    const std::vector<bool>& crashed_after_sharing, Rng& rng,
    SplitScheme scheme) {
  const std::vector<ModelView> views(models.begin(), models.end());
  return fault_tolerant_sac_average(views, k, crashed_after_sharing, rng,
                                    scheme);
}

}  // namespace p2pfl::secagg
