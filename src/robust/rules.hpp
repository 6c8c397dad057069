// Robust aggregation rules for the FedAvg layer (and anywhere else a
// set of equally sized vectors must be combined in the presence of
// Byzantine contributors).
//
// The two-layer topology makes the FedAvg layer the natural defense
// point: each subgroup's SAC subtotal is an independent observation of
// the (masked) population mean, so a poisoned subgroup shifts exactly
// one of m inputs and coordinate-wise order statistics over the m
// subtotals recover the honest value as long as fewer than the rule's
// breakdown fraction of subgroups are compromised. Inside a subgroup
// SAC masking makes per-peer updates invisible by design, so there is
// nothing these rules could inspect there — see DESIGN.md's threat
// model for that limit.
//
// Rules:
//  * kMean        — plain weighted FedAvg (no defense; delegates to
//                   fl::federated_average so clean runs stay bit-exact
//                   with every pre-existing golden).
//  * kTrimmedMean — per coordinate, drop the ceil(trim_fraction*m)
//                   largest and smallest values, average the rest
//                   (weighted). Breakdown point = trim_fraction.
//  * kMedian      — per coordinate, the weighted median. Breakdown
//                   point 1/2.
//  * kNormClip    — scale every input whose L2 norm exceeds
//                   2 x (median input norm) down to that bound, then
//                   weighted-average. Defangs scaled-update
//                   attacks while keeping honest gradients untouched.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace p2pfl::robust {

enum class RobustRule {
  kMean,
  kTrimmedMean,
  kMedian,
  kNormClip,
};

struct RobustConfig {
  RobustRule rule = RobustRule::kMean;
  /// kTrimmedMean: fraction trimmed from EACH end, in [0, 0.5).
  double trim_fraction = 0.2;
};

/// Human name of a rule ("mean", "trimmed_mean", "median", "norm_clip").
const char* rule_name(RobustRule rule);

/// Inverse of rule_name; returns true and sets `out` on a match.
bool rule_from_name(const std::string& name, RobustRule& out);

/// Combine equally sized vectors under `cfg`. `weights` must be positive
/// and match `models` in count (subgroup sizes at the FedAvg layer);
/// models must be non-empty. kMean is bit-exact with
/// fl::federated_average.
std::vector<float> aggregate(std::span<const std::vector<float>> models,
                             std::span<const double> weights,
                             const RobustConfig& cfg);

}  // namespace p2pfl::robust
