#include "secagg/sac.hpp"

#include "common/check.hpp"

namespace p2pfl::secagg {

std::vector<std::size_t> replica_share_indices(std::size_t j, std::size_t n,
                                               std::size_t k) {
  std::vector<std::size_t> out;
  out.reserve(k <= n ? n - k + 1 : 0);
  all_replica_share_indices(j, n, k, [&out](std::size_t s) {
    out.push_back(s);
    return true;
  });
  return out;
}

std::vector<std::size_t> subtotal_holders(std::size_t s, std::size_t n,
                                          std::size_t k) {
  P2PFL_CHECK(n >= 1 && k >= 1 && k <= n && s < n);
  std::vector<std::size_t> out;
  out.reserve(n - k + 1);
  // Peers j with s in {j, ..., j+n-k}  <=>  j in {s-(n-k), ..., s} mod n.
  for (std::size_t d = 0; d <= n - k; ++d) out.push_back((s + n - d) % n);
  return out;
}

Vector sac_average(std::span<const Vector> models, Rng& rng,
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

FtSacResult fault_tolerant_sac_average(
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

}  // namespace p2pfl::secagg
