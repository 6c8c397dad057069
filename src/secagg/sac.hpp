// Secure Average Computation — algorithmic (message-free) form.
//
// Implements the math of Alg. 2 (n-out-of-n SAC) and Alg. 4
// (fault-tolerant k-out-of-n SAC with replicated additive secret
// sharing) without messages; the federated-training experiments (Figs.
// 6-9) call these per round, on views of the peers' own parameters. Both
// stream over the model: each peer's ShareSplitter (shares.hpp) yields
// its shares a run of 64 kSplitBlock-element blocks at a time, and each
// run's n subtotals and their sum are formed there and dropped, so no
// share or subtotal is ever stored whole. The blocks run in parallel on
// the parallel_for workers. The average equals, bit for bit and at any
// worker count, what splitting each model with divide() and summing the
// share vectors, then the subtotals, gives.
//
// The message-driven actor (sac_actor.hpp) computes the same average but
// not bit for bit: each of its peers splits with its own Rng, and a
// subtotal adds shares in arrival order. The two agree within 1e-5
// (TwoLayerAgg.EngineMatchesMathLoopOracle).
//
// Share placement (Alg. 4, 0-based): peer j holds, from every peer i,
// the n−k+1 consecutive shares with indices {j, j+1, …, j+n−k} mod n.
// Consequently subtotal s (the sum over peers of share s) is computable
// by the n−k+1 peers {s−(n−k), …, s} mod n, so any n−k crashes after the
// share phase leave at least one live holder of every subtotal.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "secagg/shares.hpp"

namespace p2pfl::secagg {

/// True if `pred` holds for every share index peer at position j holds
/// (Alg. 4 lines 3-9), visited in ascending mod-n order starting at j
/// and stopping at the first false. n >= 1, 1 <= k <= n, j < n. Walks
/// the indices in place, allocating nothing.
template <typename Pred>
bool all_replica_share_indices(std::size_t j, std::size_t n, std::size_t k,
                               Pred pred) {
  P2PFL_CHECK(n >= 1 && k >= 1 && k <= n && j < n);
  for (std::size_t d = 0; d <= n - k; ++d) {
    if (!pred((j + d) % n)) return false;
  }
  return true;
}

/// Positions of the peers that can compute subtotal s.
std::vector<std::size_t> subtotal_holders(std::size_t s, std::size_t n,
                                          std::size_t k);

/// A peer's model, read where it lives (a trainer's parameters, say).
using ModelView = std::span<const float>;

/// Plain SAC (Alg. 2): every peer splits its model, shares are exchanged
/// and subtotals broadcast; returns the common average. All models must
/// have equal size; models.size() >= 1. Draws n values from `rng`, one
/// per peer in peer order.
Vector sac_average(std::span<const ModelView> models, Rng& rng,
                   SplitScheme scheme = SplitScheme::kProportional);
/// The same, over views of whole vectors.
Vector sac_average(std::span<const Vector> models, Rng& rng,
                   SplitScheme scheme = SplitScheme::kProportional);

struct FtSacResult {
  /// True if every subtotal had at least one live holder, i.e. the
  /// average could be reconstructed.
  bool ok = false;
  /// Average of all n contributing models (valid when ok). Crashed peers'
  /// models still contribute: their shares were already distributed.
  Vector average;
  std::size_t alive = 0;
};

/// Fault-tolerant SAC (Alg. 4): all n peers distribute shares, then the
/// peers flagged in `crashed_after_sharing` fail. The leader (first live
/// position) reconstructs the average from live subtotal holders.
/// Guaranteed ok when alive >= k. Draws n values from `rng`, as
/// sac_average() does, unless every peer crashed: then none.
FtSacResult fault_tolerant_sac_average(
    std::span<const ModelView> models, std::size_t k,
    const std::vector<bool>& crashed_after_sharing, Rng& rng,
    SplitScheme scheme = SplitScheme::kProportional);
/// The same, over views of whole vectors.
FtSacResult fault_tolerant_sac_average(
    std::span<const Vector> models, std::size_t k,
    const std::vector<bool>& crashed_after_sharing, Rng& rng,
    SplitScheme scheme = SplitScheme::kProportional);

}  // namespace p2pfl::secagg
