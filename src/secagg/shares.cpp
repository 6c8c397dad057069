#include "secagg/shares.hpp"

#include <algorithm>
#include <array>

#include "common/check.hpp"

namespace p2pfl::secagg {

namespace {

// The split runs at memory speed: randomness is drawn a block of
// kBlock elements at a time from an inlined xoshiro256+, and each share's
// block is written contiguously (share-major), so the inner loops carry
// no out-of-line call and no stride across the n share vectors.
constexpr std::size_t kBlock = 256;

// xoshiro256+ (Blackman & Vigna). Its top 53 bits are what unit() keeps;
// the weak low bits of the '+' scrambler are discarded.
class SplitGen {
 public:
  explicit SplitGen(std::uint64_t seed) {
    for (std::uint64_t& w : s_) {
      w = splitmix64(seed);
      seed += 0x9e3779b97f4a7c15ULL;
    }
  }

  /// 53-bit uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t next() {
    const std::uint64_t result = s_[0] + s_[3];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  std::array<std::uint64_t, 4> s_{};
};

void divide_proportional(std::span<const float> secret,
                         std::vector<Vector>& shares, SplitGen& gen) {
  const std::size_t n = shares.size();
  // fractions[i * kBlock + e]: share i's fraction for element e of the
  // block.
  std::vector<double> fractions(n * kBlock);
  std::array<double, kBlock> total{};
  for (std::size_t base = 0; base < secret.size(); base += kBlock) {
    const std::size_t len = std::min(kBlock, secret.size() - base);
    // Alg. 1: rn_i random, prn_i = rn_i / sum(rn), share_i = prn_i * w.
    // Draws are kept away from zero so the normalization is stable.
    std::fill_n(total.begin(), len, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      double* f = fractions.data() + i * kBlock;
      for (std::size_t e = 0; e < len; ++e) {
        f[e] = 0.05 + 0.95 * gen.unit();
        total[e] += f[e];
      }
    }
    const float* x = secret.data() + base;
    for (std::size_t i = 0; i < n; ++i) {
      const double* f = fractions.data() + i * kBlock;
      float* out = shares[i].data() + base;
      for (std::size_t e = 0; e < len; ++e) {
        out[e] = static_cast<float>(f[e] / total[e] *
                                    static_cast<double>(x[e]));
      }
    }
  }
}

void divide_uniform_mask(std::span<const float> secret,
                         std::vector<Vector>& shares, SplitGen& gen) {
  const std::size_t n = shares.size();
  std::array<double, kBlock> acc{};
  for (std::size_t base = 0; base < secret.size(); base += kBlock) {
    const std::size_t len = std::min(kBlock, secret.size() - base);
    std::fill_n(acc.begin(), len, 0.0);
    for (std::size_t i = 0; i + 1 < n; ++i) {
      float* out = shares[i].data() + base;
      for (std::size_t e = 0; e < len; ++e) {
        out[e] = static_cast<float>(kMaskRange * (2.0 * gen.unit() - 1.0));
        acc[e] += static_cast<double>(out[e]);
      }
    }
    const float* x = secret.data() + base;
    float* last = shares[n - 1].data() + base;
    for (std::size_t e = 0; e < len; ++e) {
      last[e] = static_cast<float>(static_cast<double>(x[e]) - acc[e]);
    }
  }
}

}  // namespace

std::vector<Vector> divide(std::span<const float> secret, std::size_t n,
                           Rng& rng, SplitScheme scheme) {
  P2PFL_CHECK(n >= 1);
  SplitGen gen(rng.next_u64());
  std::vector<Vector> shares(n, Vector(secret.size()));
  switch (scheme) {
    case SplitScheme::kProportional:
      divide_proportional(secret, shares, gen);
      return shares;
    case SplitScheme::kUniformMask:
      divide_uniform_mask(secret, shares, gen);
      return shares;
  }
  P2PFL_CHECK_MSG(false, "unknown split scheme");
  return {};
}

void accumulate(std::vector<double>& acc, std::span<const float> x) {
  P2PFL_CHECK(acc.size() == x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    acc[i] += static_cast<double>(x[i]);
  }
}

Vector to_vector(std::span<const double> acc, double divisor) {
  P2PFL_CHECK(divisor != 0.0);
  Vector out(acc.size());
  for (std::size_t i = 0; i < acc.size(); ++i) {
    out[i] = static_cast<float>(acc[i] / divisor);
  }
  return out;
}

}  // namespace p2pfl::secagg
