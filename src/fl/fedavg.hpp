// Federated Averaging (McMahan et al.), the paper's upper-layer
// aggregation: w <- sum_i (n_i / n) w_i, weighted by sample counts (or,
// in the two-layer system's FedAvg layer, by subgroup peer counts as in
// Alg. 3 line 10).
#pragma once

#include <span>
#include <vector>

namespace p2pfl::fl {

/// Weighted average of equally sized flat parameter vectors.
/// weights need not be normalized; they must be positive and match
/// models in count.
std::vector<float> federated_average(
    std::span<const std::vector<float>> models,
    std::span<const double> weights);

}  // namespace p2pfl::fl
