// Unit tests for the FedAvg-layer robust aggregation rules: breakdown
// points (each rule survives fewer Byzantine inputs than its bound and
// breaks at it), the bit-exactness of kMean with fl::federated_average,
// and the attack transforms' determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "fl/fedavg.hpp"
#include "robust/attack.hpp"
#include "robust/rules.hpp"

namespace p2pfl::robust {
namespace {

std::vector<std::vector<float>> constant_models(
    std::size_t m, std::size_t dim, float honest, float bad,
    std::size_t bad_count) {
  std::vector<std::vector<float>> models(m, std::vector<float>(dim, honest));
  for (std::size_t i = 0; i < bad_count; ++i) {
    models[i].assign(dim, bad);
  }
  return models;
}

TEST(RobustRules, MeanIsBitExactWithFederatedAverage) {
  Rng rng(404);
  std::vector<std::vector<float>> models;
  std::vector<double> weights;
  for (std::size_t i = 0; i < 7; ++i) {
    std::vector<float> v(13);
    for (float& x : v) x = static_cast<float>(rng.uniform(-3.0, 3.0));
    models.push_back(std::move(v));
    weights.push_back(static_cast<double>(rng.index(9) + 1));
  }
  RobustConfig cfg;  // kMean
  const std::vector<float> ours = aggregate(models, weights, cfg);
  const std::vector<float> ref = fl::federated_average(models, weights);
  ASSERT_EQ(ours.size(), ref.size());
  for (std::size_t d = 0; d < ref.size(); ++d) {
    EXPECT_EQ(ours[d], ref[d]) << d;  // bit-exact, not just near
  }
}

TEST(RobustRules, TrimmedMeanSurvivesBelowBreakdownPoint) {
  // 5 inputs, trim_fraction 0.2 -> ceil(1) trimmed per end. One extreme
  // input (20% Byzantine) lands in the trimmed tail; the survivors are
  // all the honest constant, so the result is exact.
  RobustConfig cfg;
  cfg.rule = RobustRule::kTrimmedMean;
  cfg.trim_fraction = 0.2;
  const std::vector<double> w(5, 1.0);
  for (float bad : {1e6f, -1e6f}) {
    const auto models = constant_models(5, 4, 2.5f, bad, 1);
    const std::vector<float> out = aggregate(models, w, cfg);
    for (float x : out) EXPECT_FLOAT_EQ(x, 2.5f);
  }
}

TEST(RobustRules, TrimmedMeanBreaksAboveBreakdownPoint) {
  // Two colluding extremes against trim 1-per-end: one survives the
  // trim and drags the average.
  RobustConfig cfg;
  cfg.rule = RobustRule::kTrimmedMean;
  cfg.trim_fraction = 0.2;
  const std::vector<double> w(5, 1.0);
  const auto models = constant_models(5, 4, 2.5f, 1e6f, 2);
  const std::vector<float> out = aggregate(models, w, cfg);
  EXPECT_GT(out[0], 1000.0f);
}

TEST(RobustRules, MedianSurvivesAnyMinority) {
  // Weighted median has breakdown point 1/2: 2-of-5 extremes, split
  // across both tails, leave the honest value in the middle.
  RobustConfig cfg;
  cfg.rule = RobustRule::kMedian;
  const std::vector<double> w(5, 1.0);
  auto models = constant_models(5, 4, -1.25f, 1e6f, 2);
  models[1].assign(4, -1e6f);  // one extreme per direction
  const std::vector<float> out = aggregate(models, w, cfg);
  for (float x : out) EXPECT_FLOAT_EQ(x, -1.25f);
}

TEST(RobustRules, MedianBreaksAtMajority) {
  RobustConfig cfg;
  cfg.rule = RobustRule::kMedian;
  const std::vector<double> w(5, 1.0);
  const auto models = constant_models(5, 4, 2.5f, 1e6f, 3);
  const std::vector<float> out = aggregate(models, w, cfg);
  EXPECT_FLOAT_EQ(out[0], 1e6f);
}

TEST(RobustRules, MedianRespectsWeights) {
  // Two inputs at 10 with weight 3 each outweigh three inputs at 1 with
  // weight 1: the lower weighted median is 10.
  RobustConfig cfg;
  cfg.rule = RobustRule::kMedian;
  const std::vector<std::vector<float>> models = {
      {1.0f}, {1.0f}, {1.0f}, {10.0f}, {10.0f}};
  const std::vector<double> w = {1.0, 1.0, 1.0, 3.0, 3.0};
  EXPECT_FLOAT_EQ(aggregate(models, w, cfg)[0], 10.0f);
}

TEST(RobustRules, NormClipDefangsScaledUpdate) {
  // One input scaled 1000x: clipping to 2x the median norm bounds its
  // pull; the result stays within the clip bound of the honest value.
  RobustConfig cfg;
  cfg.rule = RobustRule::kNormClip;
  const std::vector<double> w(5, 1.0);
  const auto models = constant_models(5, 4, 1.0f, 1000.0f, 1);
  const std::vector<float> out = aggregate(models, w, cfg);
  // Unclipped mean would be ~200.8; clipped stays near honest.
  EXPECT_LT(out[0], 2.0f);
  EXPECT_GT(out[0], 0.9f);
}

TEST(RobustRules, TrimNeverEatsEveryObservation) {
  // Absurd trim fractions are clamped so at least one observation
  // survives per coordinate.
  RobustConfig cfg;
  cfg.rule = RobustRule::kTrimmedMean;
  cfg.trim_fraction = 0.49;
  const std::vector<double> w(2, 1.0);
  const auto models = constant_models(2, 3, 4.0f, 8.0f, 1);
  const std::vector<float> out = aggregate(models, w, cfg);
  EXPECT_TRUE(std::isfinite(out[0]));
}

TEST(RobustRules, RuleAndAttackNamesRoundTrip) {
  for (RobustRule r : {RobustRule::kMean, RobustRule::kTrimmedMean,
                       RobustRule::kMedian, RobustRule::kNormClip}) {
    RobustRule back;
    ASSERT_TRUE(rule_from_name(rule_name(r), back)) << rule_name(r);
    EXPECT_EQ(back, r);
  }
  for (AttackKind a :
       {AttackKind::kSignFlip, AttackKind::kScaledUpdate,
        AttackKind::kRandomNoise, AttackKind::kConstantDrift,
        AttackKind::kInconsistentShares, AttackKind::kSubtotalLie,
        AttackKind::kEquivocate}) {
    AttackKind back;
    ASSERT_TRUE(attack_from_name(attack_name(a), back)) << attack_name(a);
    EXPECT_EQ(back, a);
  }
  RobustRule r;
  EXPECT_FALSE(rule_from_name("krum", r));
  AttackKind a;
  EXPECT_FALSE(attack_from_name("backdoor", a));
}

TEST(RobustAttack, PoisonTransformsAreDeterministic) {
  const std::vector<float> base = {1.0f, -2.0f, 0.5f};
  for (AttackKind k : {AttackKind::kSignFlip, AttackKind::kScaledUpdate,
                       AttackKind::kRandomNoise,
                       AttackKind::kConstantDrift}) {
    Rng a(77), b(77);
    std::vector<float> x = base, y = base;
    poison(x, {k, 10.0}, a);
    poison(y, {k, 10.0}, b);
    EXPECT_EQ(x, y) << attack_name(k);
    EXPECT_NE(x, base) << attack_name(k);
  }
  Rng rng(77);
  std::vector<float> x = base;
  poison(x, {AttackKind::kNone, 10.0}, rng);
  EXPECT_EQ(x, base);
}

TEST(RobustAttack, SignFlipAndScaleAreExactTransforms) {
  Rng rng(1);
  std::vector<float> x = {1.0f, -2.0f};
  poison(x, {AttackKind::kSignFlip, 10.0}, rng);
  EXPECT_FLOAT_EQ(x[0], -10.0f);
  EXPECT_FLOAT_EQ(x[1], 20.0f);
  std::vector<float> y = {1.0f, -2.0f};
  poison(y, {AttackKind::kScaledUpdate, 10.0}, rng);
  EXPECT_FLOAT_EQ(y[0], 10.0f);
  EXPECT_FLOAT_EQ(y[1], -20.0f);
}

}  // namespace
}  // namespace p2pfl::robust
