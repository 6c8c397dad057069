#include <gtest/gtest.h>

#include "secagg/pairwise_mask.hpp"

namespace p2pfl::secagg {
namespace {

std::vector<Vector> random_models(std::size_t n, std::size_t dim,
                                  Rng& rng) {
  std::vector<Vector> out(n, Vector(dim));
  for (auto& m : out) {
    for (float& v : m) v = static_cast<float>(rng.normal(0.0, 1.0));
  }
  return out;
}

Vector plain_sum(std::span<const Vector> models,
                 std::span<const std::size_t> ids) {
  Vector sum(models.front().size(), 0.0f);
  for (std::size_t id : ids) {
    for (std::size_t e = 0; e < sum.size(); ++e) sum[e] += models[id][e];
  }
  return sum;
}

TEST(PairwiseMask, SeedsAreSymmetric) {
  PairwiseMasker pm(6, 42);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      if (i == j) continue;
      EXPECT_EQ(pm.pair_seed(i, j), pm.pair_seed(j, i));
    }
  }
  EXPECT_NE(pm.pair_seed(0, 1), pm.pair_seed(0, 2));
  EXPECT_NE(pm.pair_seed(0, 1), PairwiseMasker(6, 43).pair_seed(0, 1));
}

TEST(PairwiseMask, MasksCancelInFullAggregate) {
  Rng rng(1);
  const std::size_t n = 5, dim = 32;
  PairwiseMasker pm(n, 7);
  const auto models = random_models(n, dim, rng);
  std::vector<Vector> masked;
  std::vector<std::size_t> all;
  for (std::size_t u = 0; u < n; ++u) {
    masked.push_back(pm.mask(u, models[u]));
    all.push_back(u);
  }
  const Vector sum = pm.unmask_sum(masked, all, {});
  const Vector expected = plain_sum(models, all);
  for (std::size_t e = 0; e < dim; ++e) {
    EXPECT_NEAR(sum[e], expected[e], 1e-3f);
  }
}

TEST(PairwiseMask, MaskedVectorHidesTheModel) {
  Rng rng(2);
  PairwiseMasker pm(4, 9);
  const auto models = random_models(4, 64, rng);
  const Vector y = pm.mask(0, models[0]);
  double dist = 0.0;
  for (std::size_t e = 0; e < y.size(); ++e) {
    dist += std::abs(static_cast<double>(y[e] - models[0][e]));
  }
  EXPECT_GT(dist, 5.0);  // masks actually moved the values
}

TEST(PairwiseMask, DropoutRecoveryYieldsSurvivorSum) {
  Rng rng(3);
  const std::size_t n = 6, dim = 16;
  PairwiseMasker pm(n, 11);
  const auto models = random_models(n, dim, rng);
  // Peers 2 and 5 drop out before uploading.
  const std::vector<std::size_t> survivors{0, 1, 3, 4};
  const std::vector<std::size_t> dropouts{2, 5};
  std::vector<Vector> masked;
  for (std::size_t u : survivors) masked.push_back(pm.mask(u, models[u]));
  const Vector sum = pm.unmask_sum(masked, survivors, dropouts);
  const Vector expected = plain_sum(models, survivors);
  for (std::size_t e = 0; e < dim; ++e) {
    EXPECT_NEAR(sum[e], expected[e], 1e-3f);
  }
}

TEST(PairwiseMask, SingleSurvivorStillRecovers) {
  Rng rng(4);
  const std::size_t n = 4, dim = 8;
  PairwiseMasker pm(n, 13);
  const auto models = random_models(n, dim, rng);
  const std::vector<std::size_t> survivors{1};
  const std::vector<std::size_t> dropouts{0, 2, 3};
  std::vector<Vector> masked{pm.mask(1, models[1])};
  const Vector sum = pm.unmask_sum(masked, survivors, dropouts);
  for (std::size_t e = 0; e < dim; ++e) {
    EXPECT_NEAR(sum[e], models[1][e], 1e-3f);
  }
}

TEST(PairwiseMask, MissingDropoutSeedsLeaveGarbage) {
  // Negative control: forgetting to cancel the dropouts' masks must NOT
  // give the survivor sum (otherwise the masks were not doing anything).
  Rng rng(5);
  const std::size_t n = 4, dim = 8;
  PairwiseMasker pm(n, 17);
  const auto models = random_models(n, dim, rng);
  const std::vector<std::size_t> survivors{0, 1, 2};
  std::vector<Vector> masked;
  for (std::size_t u : survivors) masked.push_back(pm.mask(u, models[u]));
  const Vector wrong = pm.unmask_sum(masked, survivors, {});  // forgot 3
  const Vector expected = plain_sum(models, survivors);
  double dist = 0.0;
  for (std::size_t e = 0; e < dim; ++e) {
    dist += std::abs(static_cast<double>(wrong[e] - expected[e]));
  }
  EXPECT_GT(dist, 0.5);
}

}  // namespace
}  // namespace p2pfl::secagg
