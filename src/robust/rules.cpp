#include "robust/rules.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "fl/fedavg.hpp"

namespace p2pfl::robust {

namespace {

/// One coordinate's observations, tagged with the input index so sorts
/// are deterministic even across equal values.
struct Obs {
  float value = 0.0f;
  double weight = 0.0;
  std::size_t origin = 0;
};

void sort_obs(std::vector<Obs>& col) {
  std::sort(col.begin(), col.end(), [](const Obs& a, const Obs& b) {
    if (a.value != b.value) return a.value < b.value;
    return a.origin < b.origin;
  });
}

std::vector<float> trimmed_mean(std::span<const std::vector<float>> models,
                                std::span<const double> weights,
                                double trim_fraction) {
  const std::size_t m = models.size();
  const std::size_t dim = models.front().size();
  std::size_t trim = static_cast<std::size_t>(
      std::ceil(trim_fraction * static_cast<double>(m)));
  // Always keep at least one observation.
  if (2 * trim >= m) trim = (m - 1) / 2;

  std::vector<float> out(dim, 0.0f);
  std::vector<Obs> col(m);
  for (std::size_t d = 0; d < dim; ++d) {
    for (std::size_t i = 0; i < m; ++i) {
      col[i] = {models[i][d], weights[i], i};
    }
    sort_obs(col);
    double acc = 0.0, wsum = 0.0;
    for (std::size_t i = trim; i < m - trim; ++i) {
      acc += static_cast<double>(col[i].value) * col[i].weight;
      wsum += col[i].weight;
    }
    out[d] = static_cast<float>(acc / wsum);
  }
  return out;
}

std::vector<float> median(std::span<const std::vector<float>> models,
                          std::span<const double> weights) {
  const std::size_t m = models.size();
  const std::size_t dim = models.front().size();
  double total_w = 0.0;
  for (double w : weights) total_w += w;

  std::vector<float> out(dim, 0.0f);
  std::vector<Obs> col(m);
  for (std::size_t d = 0; d < dim; ++d) {
    for (std::size_t i = 0; i < m; ++i) {
      col[i] = {models[i][d], weights[i], i};
    }
    sort_obs(col);
    // Lower weighted median: first element whose cumulative weight
    // reaches half the total.
    double cum = 0.0;
    for (const Obs& o : col) {
      cum += o.weight;
      if (cum * 2.0 >= total_w) {
        out[d] = o.value;
        break;
      }
    }
  }
  return out;
}

/// kNormClip's bound as a multiple of the median input norm.
constexpr double kClipMultiplier = 2.0;

std::vector<float> norm_clip(std::span<const std::vector<float>> models,
                             std::span<const double> weights) {
  const std::size_t m = models.size();
  std::vector<double> norms(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    double s = 0.0;
    for (float v : models[i]) s += static_cast<double>(v) * v;
    norms[i] = std::sqrt(s);
  }
  std::vector<double> sorted = norms;
  std::sort(sorted.begin(), sorted.end());
  const double median_norm = sorted[(m - 1) / 2];
  const double bound = kClipMultiplier * median_norm;

  std::vector<std::vector<float>> clipped(models.begin(), models.end());
  for (std::size_t i = 0; i < m; ++i) {
    if (norms[i] > bound && norms[i] > 0.0) {
      const double scale = bound / norms[i];
      for (float& v : clipped[i]) {
        v = static_cast<float>(static_cast<double>(v) * scale);
      }
    }
  }
  return fl::federated_average(clipped, weights);
}

}  // namespace

const char* rule_name(RobustRule rule) {
  switch (rule) {
    case RobustRule::kMean: return "mean";
    case RobustRule::kTrimmedMean: return "trimmed_mean";
    case RobustRule::kMedian: return "median";
    case RobustRule::kNormClip: return "norm_clip";
  }
  return "?";
}

bool rule_from_name(const std::string& name, RobustRule& out) {
  if (name == "mean") { out = RobustRule::kMean; return true; }
  if (name == "trimmed_mean" || name == "trimmed") {
    out = RobustRule::kTrimmedMean;
    return true;
  }
  if (name == "median") { out = RobustRule::kMedian; return true; }
  if (name == "norm_clip" || name == "clip") {
    out = RobustRule::kNormClip;
    return true;
  }
  return false;
}

std::vector<float> aggregate(std::span<const std::vector<float>> models,
                             std::span<const double> weights,
                             const RobustConfig& cfg) {
  P2PFL_CHECK_MSG(!models.empty(), "robust::aggregate: no models");
  P2PFL_CHECK_MSG(models.size() == weights.size(),
                  "robust::aggregate: weights/models mismatch");
  switch (cfg.rule) {
    case RobustRule::kMean:
      return fl::federated_average(models, weights);
    case RobustRule::kTrimmedMean:
      return trimmed_mean(models, weights, cfg.trim_fraction);
    case RobustRule::kMedian:
      return median(models, weights);
    case RobustRule::kNormClip:
      return norm_clip(models, weights);
  }
  return fl::federated_average(models, weights);
}

}  // namespace p2pfl::robust
