// Deterministic random number generation.
//
// Every stochastic component (election timeouts, secret-share splits,
// synthetic datasets, dropout injection) draws from an Rng that is seeded
// explicitly, so whole experiments replay bit-identically from one seed.
// Child generators are derived with SplitMix64 so independent components
// never share a stream.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace p2pfl {

/// One SplitMix64 step (Steele, Lea & Flood): mixes x + the golden gamma
/// into a well-spread 64-bit value, so correlated seeds give unrelated
/// states.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed)
      : root_seed_(seed), engine_(splitmix64(seed)) {}

  /// Derive an independent child generator. Deterministic in (seed, salt).
  Rng fork(std::uint64_t salt) const;

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard-normal draw scaled to (mean, stddev).
  double normal(double mean, double stddev);

  /// Bernoulli trial.
  bool chance(double p);

  /// Uniform draw from [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

  std::uint64_t next_u64() { return engine_(); }

 private:
  std::uint64_t root_seed_ = 0;
  std::mt19937_64 engine_;
};

}  // namespace p2pfl
