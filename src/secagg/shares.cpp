#include "secagg/shares.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <mutex>
#include <type_traits>
#include <utility>

#include "common/check.hpp"
#include "common/kernel_isa.hpp"

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

// x^steps mod p: T^steps as a polynomial in T, by square-and-multiply.
Poly power(std::uint64_t steps) {
  static const Poly p = transition_polynomial();
  Poly q{1, 0, 0, 0};
  for (int bit = std::bit_width(steps) - 1; bit >= 0; --bit) {
    q = times(q, q, p);
    if (((steps >> bit) & 1) != 0) q = times_x(q, p);
  }
  return q;
}

// Advances s by the steps q stands for: s becomes q(T)·s.
void advance(const Poly& q, State& s) {
  State out{};
  for (std::size_t j = 0; j < kDegree; ++j) {
    if (coefficient(q, j)) {
      for (std::size_t w = 0; w < out.size(); ++w) out[w] ^= s[w];
    }
    next(s);
  }
  s = out;
}

// --- the lanes of split_run() ------------------------------------------------
//
// A run of 8·Q full blocks splits as 8 lanes: lane j covers blocks j·Q to
// j·Q + Q − 1, from the splitter's state advanced j·Q blocks, and at step
// q every lane splits its q-th block. Each lane draws its block's numbers
// in split()'s order, so the 8 lanes are at the same draw of their blocks
// at every point, and one 8-wide operation makes, for each of 8 elements,
// the draw, fraction, total, division, product or rounding split() makes
// for it. The run is built at x86-64-v4 only (kernel_isa.hpp): below it,
// 8-wide loops split slower than split().
//
// The lanes' blocks lie Q blocks apart, so each step first stages the 8
// blocks' inputs, element-major, in an L1-resident array, and a share's 8
// blocks leave through 8×8 transposes in registers, each lane's row
// written 32 contiguous bytes at a time. No vector value crosses a
// function boundary: a function not built for x86-64-v4 would pass it by
// a different ABI.
constexpr std::size_t kLanes = 8;

typedef std::uint64_t U64x8 __attribute__((vector_size(64)));
typedef double F64x8 __attribute__((vector_size(64)));
typedef float F32x8 __attribute__((vector_size(32)));

// The lanes' states, word-major: word w of lane j at [w · kLanes + j].
using LaneStates = std::array<std::uint64_t, 4 * kLanes>;

// x^draws mod p for the lane distances in use. A run pays for the
// polynomial once per distance, which depends only on the run's length
// and the splitter's n and scheme: a SacPeer meets one per model size and
// group size, the streamed SAC one per n. The oldest entry makes way
// beyond kCachedDistances.
constexpr std::size_t kCachedDistances = 8;

Poly lane_polynomial(std::uint64_t draws) {
  static std::mutex mu;
  static std::vector<std::pair<std::uint64_t, Poly>> cache;
  const std::lock_guard<std::mutex> lock(mu);
  for (const auto& [d, poly] : cache) {
    if (d == draws) return poly;
  }
  if (cache.size() == kCachedDistances) cache.erase(cache.begin());
  return cache.emplace_back(draws, power(draws)).second;
}

// Lane j at s advanced j·draws steps. Kept out of line, so the GF(2)
// arithmetic builds at the baseline level rather than inside the
// x86-64-v4 run.
[[gnu::noinline]] LaneStates lane_states(State s, std::uint64_t draws) {
  const Poly step = lane_polynomial(draws);
  LaneStates lanes{};
  for (std::size_t j = 0; j < kLanes; ++j) {
    for (std::size_t w = 0; w < s.size(); ++w) lanes[w * kLanes + j] = s[w];
    if (j + 1 < kLanes) advance(step, s);
  }
  return lanes;
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
  split_at(x, shares, 0, work);
}

template <typename Out>
void ShareSplitter::split_at(std::span<const float> x,
                             std::span<Out* const> shares, std::size_t at,
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
        Out* out = shares[i] + at;
        for (std::size_t e = 0; e < len; ++e) {
          out[e] = static_cast<Out>(f[e] / total[e] *
                                    static_cast<double>(x[e]));
        }
      }
      state_ = state;
      return;
    }
    case SplitScheme::kUniformMask: {
      for (std::size_t i = 0; i + 1 < n_; ++i) {
        Out* out = shares[i] + at;
        for (std::size_t e = 0; e < len; ++e) {
          out[e] = static_cast<float>(kMaskRange * (2.0 * unit(state) - 1.0));
        }
      }
      std::array<double, kSplitBlock> acc;
      std::fill_n(acc.begin(), len, 0.0);
      for (std::size_t i = 0; i + 1 < n_; ++i) {
        const Out* out = shares[i] + at;
        for (std::size_t e = 0; e < len; ++e) {
          acc[e] += static_cast<double>(out[e]);
        }
      }
      Out* last = shares[n_ - 1] + at;
      for (std::size_t e = 0; e < len; ++e) {
        last[e] = static_cast<Out>(static_cast<double>(x[e]) - acc[e]);
      }
      state_ = state;
      return;
    }
  }
  P2PFL_CHECK_MSG(false, "unknown split scheme");
}

void ShareSplitter::split_run(std::span<const float> x,
                              std::span<float* const> shares,
                              std::vector<double>& work) {
  run(x, shares, work);
}

void ShareSplitter::split_run_unrounded(std::span<const float> x,
                                        std::span<double* const> shares,
                                        std::vector<double>& work) {
  run(x, shares, work);
}

template <typename Out>
void ShareSplitter::run(std::span<const float> x,
                        std::span<Out* const> shares,
                        std::vector<double>& work) {
  P2PFL_CHECK(shares.size() == n_);
  const std::size_t q = x.size() / (kLanes * kSplitBlock);
  std::size_t at = 0;
  if (q > 0 && split_lanes(x.first(q * kLanes * kSplitBlock), q, shares)) {
    at = q * kLanes * kSplitBlock;
  }
  for (; at < x.size(); at += kSplitBlock) {
    split_at(x.subspan(at, std::min(kSplitBlock, x.size() - at)), shares, at,
             work);
  }
}

template <typename Out>
bool ShareSplitter::split_lanes(std::span<const float> x, std::size_t q,
                                std::span<Out* const> shares) {
  const std::size_t n = n_;
  const bool proportional = scheme_ == SplitScheme::kProportional;
  // A column of 8 lanes' shares: rounded to float, or the unrounded
  // doubles.
  using Col = std::conditional_t<std::is_same_v<Out, float>, F32x8, F64x8>;
  return on_x86_64_v4([&]() __attribute__((always_inline)) {
    const LaneStates start = lane_states(state_, q * draws_per_block());
    U64x8 s0, s1, s2, s3;
    std::memcpy(&s0, start.data(), sizeof(s0));
    std::memcpy(&s1, start.data() + kLanes, sizeof(s1));
    std::memcpy(&s2, start.data() + 2 * kLanes, sizeof(s2));
    std::memcpy(&s3, start.data() + 3 * kLanes, sizeof(s3));
    // unit() for every lane: its next xoshiro256+ output's top 53 bits.
    const auto unit8 = [&](F64x8& u) __attribute__((always_inline)) {
      const U64x8 result = s0 + s3;
      const U64x8 t = s1 << 17;
      s2 ^= s0;
      s3 ^= s1;
      s1 ^= s2;
      s0 ^= s3;
      s2 ^= t;
      s3 = (s3 << 45) | (s3 >> 19);
      u = __builtin_convertvector(result >> 11, F64x8) * 0x1.0p-53;
    };
    // out[c] = column c of the 8×8 matrix whose rows are in[0..7].
    const auto transpose = [](const F32x8* in, F32x8* out)
        __attribute__((always_inline)) {
      F32x8 a[kLanes], b[kLanes];
      for (std::size_t r = 0; r < kLanes; r += 2) {
        a[r] = __builtin_shufflevector(in[r], in[r + 1], 0, 8, 1, 9, 4, 12,
                                       5, 13);
        a[r + 1] = __builtin_shufflevector(in[r], in[r + 1], 2, 10, 3, 11, 6,
                                           14, 7, 15);
      }
      for (std::size_t r = 0; r < kLanes; r += 4) {
        for (std::size_t h = 0; h < 2; ++h) {
          b[r + 2 * h] = __builtin_shufflevector(a[r + h], a[r + h + 2], 0,
                                                 1, 8, 9, 4, 5, 12, 13);
          b[r + 2 * h + 1] = __builtin_shufflevector(
              a[r + h], a[r + h + 2], 2, 3, 10, 11, 6, 7, 14, 15);
        }
      }
      for (std::size_t c = 0; c < kLanes / 2; ++c) {
        out[c] = __builtin_shufflevector(b[c], b[c + 4], 0, 1, 2, 3, 8, 9,
                                         10, 11);
        out[c + 4] = __builtin_shufflevector(b[c], b[c + 4], 4, 5, 6, 7, 12,
                                             13, 14, 15);
      }
    };
    const std::size_t stride = q * kSplitBlock;  // from a lane to the next
    F64x8 xd[kSplitBlock];   // element e of every lane's block, as double
    F64x8 sum[kSplitBlock];  // the fractions' total, or the masks' sum
    for (std::size_t step = 0; step < q; ++step) {
      const std::size_t at = step * kSplitBlock;  // lane 0's block
      for (std::size_t e = 0; e < kSplitBlock; e += kLanes) {
        F32x8 rows[kLanes], cols[kLanes];
        for (std::size_t j = 0; j < kLanes; ++j) {
          std::memcpy(&rows[j], x.data() + j * stride + at + e,
                      sizeof(F32x8));
        }
        transpose(rows, cols);
        for (std::size_t c = 0; c < kLanes; ++c) {
          xd[e + c] = __builtin_convertvector(cols[c], F64x8);
        }
      }
      // Share i of elements e to e + 7 of every lane, one column per
      // element, into each lane's row of share i (the unrounded doubles
      // one at a time).
      const auto put = [&](std::size_t i, std::size_t e, const Col* cols)
          __attribute__((always_inline)) {
        if constexpr (std::is_same_v<Out, float>) {
          F32x8 rows[kLanes];
          transpose(cols, rows);
          for (std::size_t j = 0; j < kLanes; ++j) {
            std::memcpy(shares[i] + j * stride + at + e, &rows[j],
                        sizeof(F32x8));
          }
        } else {
          for (std::size_t j = 0; j < kLanes; ++j) {
            for (std::size_t c = 0; c < kLanes; ++c) {
              shares[i][j * stride + at + e + c] = cols[c][j];
            }
          }
        }
      };
      F64x8 u;
      if (proportional) {
        // The totals take one pass of the draws; the shares take the same
        // draws again, from the state the step began at, so the fractions
        // need no room beyond the L1-resident stage.
        const U64x8 r0 = s0, r1 = s1, r2 = s2, r3 = s3;
        for (std::size_t e = 0; e < kSplitBlock; ++e) sum[e] = F64x8{};
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t e = 0; e < kSplitBlock; ++e) {
            unit8(u);
            sum[e] += 0.05 + 0.95 * u;
          }
        }
        s0 = r0;
        s1 = r1;
        s2 = r2;
        s3 = r3;
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t e = 0; e < kSplitBlock; e += kLanes) {
            Col cols[kLanes];
            for (std::size_t c = 0; c < kLanes; ++c) {
              unit8(u);
              const F64x8 f = 0.05 + 0.95 * u;
              cols[c] =
                  __builtin_convertvector(f / sum[e + c] * xd[e + c], Col);
            }
            put(i, e, cols);
          }
        }
      } else {
        for (std::size_t e = 0; e < kSplitBlock; ++e) sum[e] = F64x8{};
        for (std::size_t i = 0; i + 1 < n; ++i) {
          for (std::size_t e = 0; e < kSplitBlock; e += kLanes) {
            Col cols[kLanes];
            for (std::size_t c = 0; c < kLanes; ++c) {
              unit8(u);
              const F32x8 mask =
                  __builtin_convertvector(kMaskRange * (2.0 * u - 1.0), F32x8);
              sum[e + c] += __builtin_convertvector(mask, F64x8);
              cols[c] = __builtin_convertvector(mask, Col);
            }
            put(i, e, cols);
          }
        }
        for (std::size_t e = 0; e < kSplitBlock; e += kLanes) {
          Col cols[kLanes];
          for (std::size_t c = 0; c < kLanes; ++c) {
            cols[c] = __builtin_convertvector(xd[e + c] - sum[e + c], Col);
          }
          put(n - 1, e, cols);
        }
      }
    }
    // Lane 7 ends where the run ends.
    state_ = {s0[kLanes - 1], s1[kLanes - 1], s2[kLanes - 1], s3[kLanes - 1]};
  });
}

std::uint64_t ShareSplitter::draws_per_block() const {
  return (scheme_ == SplitScheme::kProportional ? n_ : n_ - 1) * kSplitBlock;
}

void ShareSplitter::skip(std::size_t blocks) {
  advance(power(blocks * draws_per_block()), state_);
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

Share::Share(Vector v) : size_(v.size()) {
  const auto owner = std::make_shared<const Vector>(std::move(v));
  data_ = std::shared_ptr<const float[]>(owner, owner->data());
}

bool Share::operator==(const Share& other) const {
  return std::equal(begin(), end(), other.begin(), other.end());
}

void accumulate(std::span<double> acc, std::span<const float> x) {
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
