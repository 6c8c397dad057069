#include "secagg/pairwise_mask.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace p2pfl::secagg {

namespace {

std::vector<double> prg_vector(std::uint64_t seed, std::size_t dim,
                               double range) {
  Rng rng(seed);
  std::vector<double> out(dim);
  for (double& v : out) v = rng.uniform(-range, range);
  return out;
}

}  // namespace

PairwiseMasker::PairwiseMasker(std::size_t participants,
                               std::uint64_t session, double mask_range)
    : n_(participants), session_(session), range_(mask_range) {
  P2PFL_CHECK(participants >= 2);
  P2PFL_CHECK(mask_range > 0.0);
}

std::uint64_t PairwiseMasker::pair_seed(std::size_t i, std::size_t j) const {
  P2PFL_CHECK(i < n_ && j < n_ && i != j);
  const std::uint64_t lo = std::min(i, j);
  const std::uint64_t hi = std::max(i, j);
  return splitmix64(session_ ^ splitmix64(lo * 0x1'0000'0001ULL + hi));
}

std::vector<double> PairwiseMasker::pair_mask(std::size_t i, std::size_t j,
                                              std::size_t dim) const {
  return prg_vector(pair_seed(i, j), dim, range_);
}

std::vector<double> PairwiseMasker::individual_mask(std::size_t u,
                                                    std::size_t dim) const {
  P2PFL_CHECK(u < n_);
  return prg_vector(splitmix64(session_ ^ splitmix64(0xb00b'5eedULL + u)),
                    dim, range_);
}

Vector PairwiseMasker::mask(std::size_t u,
                            std::span<const float> model) const {
  P2PFL_CHECK(u < n_);
  std::vector<double> acc(model.begin(), model.end());
  const auto b = individual_mask(u, model.size());
  for (std::size_t e = 0; e < acc.size(); ++e) acc[e] += b[e];
  for (std::size_t v = 0; v < n_; ++v) {
    if (v == u) continue;
    const auto m = pair_mask(u, v, model.size());
    // Lower index adds, higher index subtracts: sums cancel pairwise.
    const double sign = u < v ? 1.0 : -1.0;
    for (std::size_t e = 0; e < acc.size(); ++e) acc[e] += sign * m[e];
  }
  return to_vector(acc);
}

Vector PairwiseMasker::unmask_sum(
    std::span<const Vector> masked,
    std::span<const std::size_t> survivor_ids,
    std::span<const std::size_t> dropout_ids) const {
  P2PFL_CHECK(!masked.empty());
  P2PFL_CHECK(masked.size() == survivor_ids.size());
  const std::size_t dim = masked.front().size();
  std::vector<double> acc(dim, 0.0);
  for (const Vector& y : masked) {
    P2PFL_CHECK(y.size() == dim);
    accumulate(acc, y);
  }
  // Remove the survivors' individual masks (their seeds are revealed via
  // the secret-sharing round; here the server derives them directly).
  for (std::size_t u : survivor_ids) {
    const auto b = individual_mask(u, dim);
    for (std::size_t e = 0; e < dim; ++e) acc[e] -= b[e];
  }
  // Remove the dangling pairwise masks between survivors and dropouts:
  // the dropout never uploaded, so its halves did not cancel.
  for (std::size_t d : dropout_ids) {
    for (std::size_t u : survivor_ids) {
      const auto m = pair_mask(u, d, dim);
      const double sign = u < d ? 1.0 : -1.0;
      for (std::size_t e = 0; e < dim; ++e) acc[e] -= sign * m[e];
    }
  }
  return to_vector(acc);
}

}  // namespace p2pfl::secagg
