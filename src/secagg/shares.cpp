#include "secagg/shares.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "common/check.hpp"

namespace p2pfl::secagg {

namespace {

// The split runs at memory speed: randomness is drawn a block of
// kSplitBlock elements at a time from an inlined xoshiro256+ (Blackman &
// Vigna), and each share's block is written contiguously (share-major),
// so the inner loops carry no out-of-line call and no stride across the
// n shares.
using State = std::array<std::uint64_t, 4>;

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

std::uint64_t next(State& s) {
  const std::uint64_t result = s[0] + s[3];
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

// 53-bit uniform in [0, 1): the top bits of the '+' scrambler's output;
// its weak low bits are discarded.
double unit(State& s) {
  return static_cast<double>(next(s) >> 11) * 0x1.0p-53;
}

// Jump-ahead. The state step T of xoshiro256 is linear over GF(2), so
// with p its characteristic polynomial, p(T) = 0 (Cayley–Hamilton) and
// T^k = (x^k mod p)(T): k steps cost O(log k) products of polynomials of
// degree < 256 and 256 steps. A Poly holds such a polynomial, bit j of
// word j / 64 the coefficient of x^j.
using Poly = std::array<std::uint64_t, 4>;
constexpr std::size_t kDegree = 256;

bool coefficient(const Poly& a, std::size_t j) {
  return ((a[j / 64] >> (j % 64)) & 1) != 0;
}

// p without its x^256 term. T has full period 2^256 - 1, so p is
// primitive, and it is the minimal polynomial of every nonzero bit
// sequence T generates; Berlekamp–Massey recovers it from 512 terms of
// one (the low bit of s[0]).
Poly transition_polynomial() {
  constexpr std::size_t kTerms = 2 * kDegree;
  std::array<std::uint8_t, kTerms> seq{};
  State s{1, 0, 0, 0};
  for (std::uint8_t& bit : seq) {
    bit = static_cast<std::uint8_t>(s[0] & 1);
    next(s);
  }
  // c: connection polynomial of the shortest LFSR yielding seq so far,
  // seq[t] = sum of c[i]·seq[t−i] over i = 1..len.
  std::array<std::uint8_t, kTerms + 1> c{}, prev{};
  c[0] = prev[0] = 1;
  std::size_t len = 0, shift = 1;
  for (std::size_t t = 0; t < kTerms; ++t) {
    std::uint8_t d = seq[t];
    for (std::size_t i = 1; i <= len; ++i) d ^= c[i] & seq[t - i];
    if (d == 0) {
      ++shift;
      continue;
    }
    const auto before = c;
    for (std::size_t i = 0; i + shift <= kTerms; ++i) c[i + shift] ^= prev[i];
    if (2 * len <= t) {
      len = t + 1 - len;
      prev = before;
      shift = 1;
    } else {
      ++shift;
    }
  }
  P2PFL_CHECK(len == kDegree);
  // p(x) = x^256·c(1/x): the coefficient of x^j is c[256 − j].
  Poly p{};
  for (std::size_t j = 0; j < kDegree; ++j) {
    if (c[kDegree - j] != 0) p[j / 64] |= std::uint64_t{1} << (j % 64);
  }
  return p;
}

// a·x mod p.
Poly times_x(Poly a, const Poly& p) {
  const bool carry = coefficient(a, kDegree - 1);
  for (std::size_t w = a.size() - 1; w > 0; --w) {
    a[w] = (a[w] << 1) | (a[w - 1] >> 63);
  }
  a[0] <<= 1;
  if (carry) {
    for (std::size_t w = 0; w < a.size(); ++w) a[w] ^= p[w];
  }
  return a;
}

// a·b mod p, by Horner's rule over a's coefficients.
Poly times(const Poly& a, const Poly& b, const Poly& p) {
  Poly r{};
  for (std::size_t j = kDegree; j-- > 0;) {
    r = times_x(r, p);
    if (coefficient(a, j)) {
      for (std::size_t w = 0; w < r.size(); ++w) r[w] ^= b[w];
    }
  }
  return r;
}

// Advances s by `steps` calls of next().
void jump(State& s, std::uint64_t steps) {
  static const Poly p = transition_polynomial();
  Poly q{1, 0, 0, 0};  // x^steps mod p, by square-and-multiply
  for (int bit = std::bit_width(steps) - 1; bit >= 0; --bit) {
    q = times(q, q, p);
    if (((steps >> bit) & 1) != 0) q = times_x(q, p);
  }
  State out{};
  for (std::size_t j = 0; j < kDegree; ++j) {
    if (coefficient(q, j)) {
      for (std::size_t w = 0; w < out.size(); ++w) out[w] ^= s[w];
    }
    next(s);
  }
  s = out;
}

}  // namespace

ShareSplitter::ShareSplitter(std::size_t n, SplitScheme scheme, Rng& rng)
    : n_(n), scheme_(scheme) {
  P2PFL_CHECK(n >= 1);
  std::uint64_t seed = rng.next_u64();
  for (std::uint64_t& w : state_) {
    w = splitmix64(seed);
    seed += 0x9e3779b97f4a7c15ULL;
  }
}

void ShareSplitter::split(std::span<const float> x,
                          std::span<float* const> shares,
                          std::vector<double>& work) {
  const std::size_t len = x.size();
  P2PFL_CHECK(len >= 1 && len <= kSplitBlock && shares.size() == n_);
  // The draws step a local copy, which the compiler keeps in registers.
  State state = state_;
  switch (scheme_) {
    case SplitScheme::kProportional: {
      // Alg. 1: rn_i random, prn_i = rn_i / sum(rn), share_i = prn_i * w.
      // Draws are kept away from zero so the normalization is stable.
      // work[i * kSplitBlock + e] holds share i's fraction for element e.
      work.resize(n_ * kSplitBlock);
      for (std::size_t i = 0; i < n_; ++i) {
        double* f = work.data() + i * kSplitBlock;
        for (std::size_t e = 0; e < len; ++e) f[e] = 0.05 + 0.95 * unit(state);
      }
      // Summed in a pass of their own: fused into the draw loop, the sum
      // gets split off by the compiler, which then draws twice.
      std::array<double, kSplitBlock> total;
      std::fill_n(total.begin(), len, 0.0);
      for (std::size_t i = 0; i < n_; ++i) {
        const double* f = work.data() + i * kSplitBlock;
        for (std::size_t e = 0; e < len; ++e) total[e] += f[e];
      }
      for (std::size_t i = 0; i < n_; ++i) {
        const double* f = work.data() + i * kSplitBlock;
        float* out = shares[i];
        for (std::size_t e = 0; e < len; ++e) {
          out[e] = static_cast<float>(f[e] / total[e] *
                                      static_cast<double>(x[e]));
        }
      }
      state_ = state;
      return;
    }
    case SplitScheme::kUniformMask: {
      for (std::size_t i = 0; i + 1 < n_; ++i) {
        float* out = shares[i];
        for (std::size_t e = 0; e < len; ++e) {
          out[e] = static_cast<float>(kMaskRange * (2.0 * unit(state) - 1.0));
        }
      }
      std::array<double, kSplitBlock> acc;
      std::fill_n(acc.begin(), len, 0.0);
      for (std::size_t i = 0; i + 1 < n_; ++i) {
        const float* out = shares[i];
        for (std::size_t e = 0; e < len; ++e) {
          acc[e] += static_cast<double>(out[e]);
        }
      }
      float* last = shares[n_ - 1];
      for (std::size_t e = 0; e < len; ++e) {
        last[e] = static_cast<float>(static_cast<double>(x[e]) - acc[e]);
      }
      state_ = state;
      return;
    }
  }
  P2PFL_CHECK_MSG(false, "unknown split scheme");
}

void ShareSplitter::skip(std::size_t blocks) {
  const std::size_t draws_per_block =
      (scheme_ == SplitScheme::kProportional ? n_ : n_ - 1) * kSplitBlock;
  jump(state_, blocks * draws_per_block);
}

std::vector<Vector> divide(std::span<const float> secret, std::size_t n,
                           Rng& rng, SplitScheme scheme) {
  ShareSplitter splitter(n, scheme, rng);
  std::vector<Vector> shares(n, Vector(secret.size()));
  std::vector<float*> out(n);
  std::vector<double> work;
  for (std::size_t base = 0; base < secret.size(); base += kSplitBlock) {
    for (std::size_t i = 0; i < n; ++i) out[i] = shares[i].data() + base;
    splitter.split(
        secret.subspan(base, std::min(kSplitBlock, secret.size() - base)),
        out, work);
  }
  return shares;
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
