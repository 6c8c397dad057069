#include "fl/fedavg.hpp"

#include "common/check.hpp"

namespace p2pfl::fl {

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
  std::vector<double> acc(dim, 0.0);
  for (std::size_t i = 0; i < models.size(); ++i) {
    P2PFL_CHECK(models[i].size() == dim);
    const double w = weights[i] / total_weight;
    for (std::size_t j = 0; j < dim; ++j) {
      acc[j] += w * static_cast<double>(models[i][j]);
    }
  }
  std::vector<float> out(dim);
  for (std::size_t j = 0; j < dim; ++j) out[j] = static_cast<float>(acc[j]);
  return out;
}

}  // namespace p2pfl::fl
