// Pairwise additive masking (Bonawitz et al., CCS'17 — [8] in the
// paper's related work).
//
// The paper positions its SAC-based design against server-mediated
// secure aggregation: users agree on pairwise secrets (via a
// Diffie-Hellman exchange), mask their model with the sum of pairwise
// masks (which cancel in the aggregate) plus an individual mask whose
// seed is secret-shared for dropout recovery. We implement the
// mask-generation math so the ablation bench can contrast the schemes'
// numerics and communication profiles, and so tests can verify the two
// core identities:
//   * sum of masked inputs == sum of inputs (pairwise masks cancel);
//   * a dropout's pairwise masks are removable by the survivors
//     reconstructing its secret.
//
// The "Diffie-Hellman key agreement" is simulated as a deterministic
// shared-seed derivation: seed(i, j) = H(session, min(i,j), max(i,j)) —
// exactly the property DH provides (both ends derive one secret) without
// modeling the group arithmetic, which the experiments do not exercise.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "secagg/shares.hpp"

namespace p2pfl::secagg {

class PairwiseMasker {
 public:
  /// `session` seeds all pairwise secrets; every participant must agree
  /// on it (in the real protocol it falls out of the DH exchange).
  PairwiseMasker(std::size_t participants, std::uint64_t session,
                 double mask_range = 1.0);

  std::size_t participants() const { return n_; }

  /// The shared pairwise seed for peers i and j (symmetric).
  std::uint64_t pair_seed(std::size_t i, std::size_t j) const;

  /// The pairwise mask vector PRG(seed(i,j)) of length dim, signed: it
  /// is *added* by the lower-indexed peer and *subtracted* by the
  /// higher-indexed one, so masks cancel in the aggregate.
  std::vector<double> pair_mask(std::size_t i, std::size_t j,
                                std::size_t dim) const;

  /// Peer u's individual mask PRG(individual seed) of length dim.
  std::vector<double> individual_mask(std::size_t u, std::size_t dim) const;

  /// y_u = x_u + b_u + sum_{v>u} m(u,v) - sum_{v<u} m(v,u)  (CCS'17 Eq.)
  Vector mask(std::size_t u, std::span<const float> model) const;

  /// Server-side unmasking: given the masked vectors of the survivors,
  /// the individual-mask seeds of survivors (revealed via secret shares)
  /// and the pairwise seeds of dropouts (reconstructed via shares),
  /// recover the exact sum of the survivors' models.
  Vector unmask_sum(std::span<const Vector> masked,
                    std::span<const std::size_t> survivor_ids,
                    std::span<const std::size_t> dropout_ids) const;

 private:
  std::size_t n_;
  std::uint64_t session_;
  double range_;
};

}  // namespace p2pfl::secagg
