#include "fl/optimizer.hpp"

#include <cmath>

#include "common/check.hpp"

namespace p2pfl::fl {

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
  for (std::size_t i = 0; i < params.size(); ++i) {
    const double g = grads[i];
    m_[i] = b1 * m_[i] + (1.0 - b1) * g;
    v_[i] = b2 * v_[i] + (1.0 - b2) * g * g;
    const double mhat = m_[i] / bc1;
    const double vhat = v_[i] / bc2;
    params[i] -= static_cast<float>(lr_ * mhat /
                                    (std::sqrt(vhat) + eps_));
  }
}

}  // namespace p2pfl::fl
