#include "common/rng.hpp"

#include "common/check.hpp"

namespace p2pfl {

Rng Rng::fork(std::uint64_t salt) const {
  // Mixing the engine's seed-derived state with the salt gives streams
  // that are independent for distinct salts yet reproducible.
  return Rng(splitmix64(root_seed_ ^
                        splitmix64(salt ^ 0xa076'1d64'78bd'642fULL)));
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  P2PFL_CHECK(lo <= hi);
  std::uniform_int_distribution<std::int64_t> d(lo, hi);
  return d(engine_);
}

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> d(lo, hi);
  return d(engine_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> d(mean, stddev);
  return d(engine_);
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform(0.0, 1.0) < p;
}

std::size_t Rng::index(std::size_t n) {
  P2PFL_CHECK(n > 0);
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

}  // namespace p2pfl
