// The optimizer, operating on flattened parameter vectors.
//
// The paper trains with Adam (lr = 1e-4). State (Adam moments) is sized
// lazily on the first step and persists across federated rounds on each
// peer. PeerTrainer steps a model's flat store (model.hpp) in place.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace p2pfl::fl {

class Adam {
 public:
  explicit Adam(float lr, float beta1 = 0.9f, float beta2 = 0.999f,
                float eps = 1e-8f)
      : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {}

  /// In-place update of `params` from `grads` (equal sizes). The loop
  /// vectorizes: p2pfl_fl builds with -fno-math-errno, so std::sqrt is the
  /// correctly rounded instruction at every vector width. A large model's
  /// step runs in chunks over parallel_for_chunked, each element's update
  /// on one thread, so the result does not depend on the worker count.
  void step(std::span<float> params, std::span<const float> grads);

 private:
  float lr_, beta1_, beta2_, eps_;
  std::vector<double> m_, v_;
  std::uint64_t t_ = 0;
};

}  // namespace p2pfl::fl
