#include "fl/optimizer.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/parallel.hpp"

namespace p2pfl::fl {

namespace {

// Parameters below which a step runs on the calling thread: waking pool
// workers would cost more than a small model's whole step.
constexpr std::size_t kParallelStepFloor = std::size_t{1} << 15;

}  // namespace

void Adam::step(std::span<float> params, std::span<const float> grads) {
  P2PFL_CHECK(params.size() == grads.size());
  if (m_.size() != params.size()) {
    m_.assign(params.size(), 0.0);
    v_.assign(params.size(), 0.0);
    t_ = 0;
  }
  ++t_;
  const double b1 = beta1_, b2 = beta2_;
  const double bc1 = 1.0 - std::pow(b1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(b2, static_cast<double>(t_));
  // Each element's update reads and writes only its own parameter and
  // moments, so chunks of the range give the serial loop's bits.
  const auto update = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const double g = grads[i];
      m_[i] = b1 * m_[i] + (1.0 - b1) * g;
      v_[i] = b2 * v_[i] + (1.0 - b2) * g * g;
      const double mhat = m_[i] / bc1;
      const double vhat = v_[i] / bc2;
      params[i] -= static_cast<float>(lr_ * mhat /
                                      (std::sqrt(vhat) + eps_));
    }
  };
  if (params.size() < kParallelStepFloor) {
    update(0, params.size());
  } else {
    parallel_for_chunked(0, params.size(), update);
  }
}

}  // namespace p2pfl::fl
