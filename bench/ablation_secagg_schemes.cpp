// Ablation: the four secret-sharing / masking schemes implemented in
// this repo, compared on one axis the paper fixes by design choice:
//
//   * proportional (Alg. 1, the paper's scheme)  — float fractions;
//   * uniform additive mask                      — float noise shares;
//   * ring Z_{2^64} fixed point                  — classical additive
//     sharing with information-theoretic share privacy;
//   * pairwise masking (Bonawitz/CCS'17)         — the server-based
//     related-work scheme.
//
// Reported per scheme: reconstruction error of the aggregate vs the
// exact mean, a share-privacy proxy (|Pearson correlation| between
// share elements and secret elements — high means the share leaks the
// model), and throughput of the split + aggregate pipeline via
// google-benchmark. Exits 1, naming the scheme on stderr, when any
// scheme's aggregate max-error exceeds kMaxAggError.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "secagg/pairwise_mask.hpp"
#include "secagg/ring.hpp"
#include "secagg/sac.hpp"

namespace {

using namespace p2pfl;
using secagg::Vector;

// Every scheme reconstructs the mean to float rounding (6e-8 to 3e-7 at
// n = 10, dim = 4096); an error this large means a broken split.
constexpr double kMaxAggError = 1e-5;

Vector random_model(std::size_t dim, Rng& rng) {
  Vector v(dim);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, 0.5));
  return v;
}

double correlation(std::span<const float> a, std::span<const float> b) {
  const std::size_t n = a.size();
  double ma = 0, mb = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= static_cast<double>(n);
  mb /= static_cast<double>(n);
  double cov = 0, va = 0, vb = 0;
  for (std::size_t i = 0; i < n; ++i) {
    cov += (a[i] - ma) * (b[i] - mb);
    va += (a[i] - ma) * (a[i] - ma);
    vb += (b[i] - mb) * (b[i] - mb);
  }
  if (va == 0 || vb == 0) return 0.0;
  return cov / std::sqrt(va * vb);
}

double max_abs_err(const Vector& a, const Vector& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(a[i] - b[i])));
  }
  return worst;
}

/// Prints the accuracy/leakage table; returns the schemes whose aggregate
/// error exceeds kMaxAggError.
std::vector<std::string> report_accuracy_and_leakage() {
  const std::size_t n = 10, dim = 4096;
  Rng rng(42);
  std::vector<Vector> models;
  for (std::size_t i = 0; i < n; ++i) models.push_back(random_model(dim, rng));
  Vector exact(dim, 0.0f);
  for (const auto& m : models) {
    for (std::size_t e = 0; e < dim; ++e) exact[e] += m[e];
  }
  for (float& v : exact) v /= static_cast<float>(n);

  std::vector<std::string> failed;
  const auto row = [&](const char* scheme, const Vector& avg,
                       std::span<const float> share) {
    const double err = max_abs_err(avg, exact);
    std::printf("%-21s %9.2e     %18.3f\n", scheme, err,
                std::abs(correlation(share, models[0])));
    if (!(err <= kMaxAggError)) failed.emplace_back(scheme);
  };

  std::printf("scheme              agg max-err     share/secret |corr|\n");

  for (const auto& [scheme, name] :
       {std::pair{secagg::SplitScheme::kProportional, "proportional (Alg.1)"},
        std::pair{secagg::SplitScheme::kUniformMask, "uniform mask"}}) {
    const Vector avg = secagg::sac_average(models, rng, scheme);
    const auto shares = secagg::divide(models[0], n, rng, scheme);
    row(name, avg, shares[0]);
  }
  {
    const Vector avg = secagg::ring_sac_average(models, rng);
    const auto ring_shares =
        secagg::ring_divide(secagg::RingCodec().encode(models[0]), n, rng);
    // Map a ring share back to floats for the correlation proxy.
    Vector as_float(dim);
    for (std::size_t e = 0; e < dim; ++e) {
      as_float[e] = static_cast<float>(
          static_cast<double>(
              static_cast<std::int64_t>(ring_shares[0][e])) /
          secagg::RingCodec().scale());
    }
    row("ring Z_2^64", avg, as_float);
  }
  {
    secagg::PairwiseMasker pm(n, 7, /*mask_range=*/5.0);
    std::vector<Vector> masked;
    std::vector<std::size_t> all;
    for (std::size_t u = 0; u < n; ++u) {
      masked.push_back(pm.mask(u, models[u]));
      all.push_back(u);
    }
    Vector sum = pm.unmask_sum(masked, all, {});
    for (float& v : sum) v /= static_cast<float>(n);
    row("pairwise mask (CCS17)", sum, masked[0]);
  }
  std::printf(
      "\n(proportional shares correlate ~1 with the secret — each share is "
      "a scaled model\ncopy; mask/ring schemes leak nothing per share. The "
      "paper keeps Alg. 1 for\nsimplicity; this library lets deployments "
      "pick the ring scheme instead.)\n\n");
  return failed;
}

// --- throughput ---------------------------------------------------------------

void BM_DivideProportional(benchmark::State& state) {
  Rng rng(1);
  const Vector model = random_model(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(secagg::divide(model, 10, rng));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 4);
}
BENCHMARK(BM_DivideProportional)->Arg(1 << 12)->Arg(1 << 16);

void BM_DivideUniformMask(benchmark::State& state) {
  Rng rng(1);
  const Vector model = random_model(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        secagg::divide(model, 10, rng, secagg::SplitScheme::kUniformMask));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 4);
}
BENCHMARK(BM_DivideUniformMask)->Arg(1 << 12)->Arg(1 << 16);

void BM_RingDivide(benchmark::State& state) {
  Rng rng(1);
  const Vector model = random_model(static_cast<std::size_t>(state.range(0)), rng);
  const auto encoded = secagg::RingCodec().encode(model);
  for (auto _ : state) {
    benchmark::DoNotOptimize(secagg::ring_divide(encoded, 10, rng));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 8);
}
BENCHMARK(BM_RingDivide)->Arg(1 << 12)->Arg(1 << 16);

void BM_PairwiseMask(benchmark::State& state) {
  Rng rng(1);
  const Vector model = random_model(static_cast<std::size_t>(state.range(0)), rng);
  secagg::PairwiseMasker pm(10, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pm.mask(0, model));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0) * 4);
}
BENCHMARK(BM_PairwiseMask)->Arg(1 << 12)->Arg(1 << 16);

void BM_SacAverage10Peers(benchmark::State& state) {
  Rng rng(1);
  std::vector<Vector> models;
  for (int i = 0; i < 10; ++i) {
    models.push_back(random_model(static_cast<std::size_t>(state.range(0)), rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(secagg::sac_average(models, rng));
  }
}
BENCHMARK(BM_SacAverage10Peers)->Arg(1 << 12);

void BM_RingSacAverage10Peers(benchmark::State& state) {
  Rng rng(1);
  std::vector<Vector> models;
  for (int i = 0; i < 10; ++i) {
    models.push_back(random_model(static_cast<std::size_t>(state.range(0)), rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(secagg::ring_sac_average(models, rng));
  }
}
BENCHMARK(BM_RingSacAverage10Peers)->Arg(1 << 12);

}  // namespace

int main(int argc, char** argv) {
  std::printf("== ablation — secure aggregation schemes ==\n\n");
  const std::vector<std::string> failed = report_accuracy_and_leakage();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  for (const std::string& scheme : failed) {
    std::fprintf(stderr, "FAIL: %s aggregate max-error exceeds %.0e\n",
                 scheme.c_str(), kMaxAggError);
  }
  return failed.empty() ? 0 : 1;
}
