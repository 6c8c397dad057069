#include "fl/fedavg.hpp"

#include <algorithm>
#include <array>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace p2pfl::fl {

namespace {

// Elements per block: a block's double sums stay in L1 while every model
// adds its terms, and a model of one block runs on the caller alone.
constexpr std::size_t kBlock = 2048;

}  // namespace

std::vector<float> federated_average(
    std::span<const std::vector<float>> models,
    std::span<const double> weights) {
  P2PFL_CHECK(!models.empty());
  P2PFL_CHECK(models.size() == weights.size());
  const std::size_t dim = models.front().size();
  double total_weight = 0.0;
  for (double w : weights) {
    P2PFL_CHECK(w > 0.0);
    total_weight += w;
  }
  std::vector<double> scale(models.size());
  for (std::size_t i = 0; i < models.size(); ++i) {
    P2PFL_CHECK(models[i].size() == dim);
    scale[i] = weights[i] / total_weight;
  }
  // Per element, the terms w_i * m_i[j] in model order into one double
  // that starts at 0.0, rounded to float once: the two-pass form's
  // arithmetic without a model-sized accumulator.
  std::vector<float> out(dim);
  const std::size_t blocks = (dim + kBlock - 1) / kBlock;
  parallel_for_chunked(0, blocks, [&](std::size_t lo, std::size_t hi) {
    std::array<double, kBlock> acc;
    for (std::size_t b = lo; b < hi; ++b) {
      const std::size_t base = b * kBlock;
      const std::size_t len = std::min(kBlock, dim - base);
      std::fill_n(acc.begin(), len, 0.0);
      for (std::size_t i = 0; i < models.size(); ++i) {
        const double w = scale[i];
        const float* m = models[i].data() + base;
        for (std::size_t j = 0; j < len; ++j) {
          acc[j] += w * static_cast<double>(m[j]);
        }
      }
      for (std::size_t j = 0; j < len; ++j) {
        out[base + j] = static_cast<float>(acc[j]);
      }
    }
  });
  return out;
}

}  // namespace p2pfl::fl
