#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>

#include "fl/data.hpp"
#include "fl/fedavg.hpp"
#include "fl/loss.hpp"
#include "fl/model.hpp"
#include "fl/optimizer.hpp"
#include "fl/trainer.hpp"

namespace p2pfl::fl {
namespace {

// --- tensor -------------------------------------------------------------------

TEST(Tensor, ShapeAndSize) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.size(), 24u);
  EXPECT_EQ(t.dim(1), 3u);
  for (float v : t.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3});
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(i);
  Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.dim(0), 3u);
  for (std::size_t i = 0; i < r.size(); ++i) {
    EXPECT_EQ(r[i], static_cast<float>(i));
  }
}

TEST(Tensor, ReshapeSizeMismatchThrows) {
  Tensor t({2, 3});
  EXPECT_THROW(t.reshaped({4, 2}), std::logic_error);
}

// --- layers: gradient checking --------------------------------------------------

// Numerical gradient check of dLoss/dParams for a tiny model.
void check_param_gradients(Model& model, const Tensor& x,
                           const std::vector<int>& labels, float tol) {
  Rng rng(0);
  model.zero_grads();
  // A training forward, which keeps what backward reads; the models here
  // have no Dropout, so its logits are the evaluation forward's.
  const Tensor logits = model.forward(x, /*train=*/true, rng);
  const LossResult base = softmax_cross_entropy(logits, labels);
  model.backward(base.grad);
  const auto analytic = model.get_grads();
  auto params = model.get_params();

  const float eps = 1e-3f;
  // Spot-check a spread of parameters (full sweep is O(P * forward)).
  for (std::size_t i = 0; i < params.size();
       i += std::max<std::size_t>(1, params.size() / 25)) {
    const float orig = params[i];
    params[i] = orig + eps;
    model.set_params(params);
    const double up =
        softmax_cross_entropy(model.forward(x, false, rng), labels).loss;
    params[i] = orig - eps;
    model.set_params(params);
    const double down =
        softmax_cross_entropy(model.forward(x, false, rng), labels).loss;
    params[i] = orig;
    model.set_params(params);
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric, tol) << "param " << i;
  }
}

TEST(Gradients, DenseMatchNumeric) {
  Rng rng(3);
  Model m = Model::mlp(6, {5}, 3);
  m.init(rng);
  Tensor x({4, 1, 2, 3});
  for (float& v : x.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  check_param_gradients(m, x, {0, 2, 1, 0}, 2e-2f);
}

TEST(Gradients, ConvPoolStackMatchNumeric) {
  Rng rng(4);
  Model m;
  m.add(std::make_unique<Conv2d>(1, 2));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<MaxPool2d>());
  m.add(std::make_unique<Flatten>());
  m.add(std::make_unique<Dense>(2 * 2 * 2, 3));
  m.init(rng);
  Tensor x({2, 1, 4, 4});
  for (float& v : x.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  check_param_gradients(m, x, {1, 2}, 2e-2f);
}

TEST(Layers, ReLUZeroesNegativesAndGradients) {
  Rng rng(0);
  ReLU relu;
  Tensor x({1, 4}, {-1.0f, 2.0f, -3.0f, 4.0f});
  const Tensor y = relu.forward(x, /*train=*/true, rng);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 2.0f);
  const Tensor g = relu.backward(Tensor({1, 4}, {1, 1, 1, 1}));
  EXPECT_EQ(g[0], 0.0f);
  EXPECT_EQ(g[1], 1.0f);
  EXPECT_EQ(g[2], 0.0f);
  EXPECT_EQ(g[3], 1.0f);
}

TEST(Layers, MaxPoolPicksMaxAndRoutesGradient) {
  Rng rng(0);
  MaxPool2d pool;
  Tensor x({1, 1, 2, 2}, {1.0f, 5.0f, 3.0f, 2.0f});
  const Tensor y = pool.forward(x, /*train=*/true, rng);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_EQ(y[0], 5.0f);
  const Tensor g = pool.backward(Tensor({1, 1, 1, 1}, {2.0f}));
  EXPECT_EQ(g.flat()[1], 2.0f);  // routed to the argmax position
  EXPECT_EQ(g.flat()[0], 0.0f);
}

// An evaluation forward keeps no activations, also after a training one:
// a backward after it is a checked error, not a gradient of stale inputs.
TEST(Layers, BackwardAfterEvaluationForwardIsAnError) {
  Rng rng(7);
  Dense dense(3, 2);
  Conv2d conv(1, 2);
  ReLU relu;
  MaxPool2d pool;
  dense.init(rng);
  conv.init(rng);
  const Tensor x2({2, 3}, {1, -2, 3, -4, 5, -6});
  Tensor x4({1, 1, 2, 2}, {1.0f, -5.0f, 3.0f, 2.0f});
  const auto check = [&](Layer& layer, const Tensor& x) {
    const Tensor y = layer.forward(x, /*train=*/true, rng);
    EXPECT_NO_THROW(layer.backward(y)) << layer.name();
    layer.forward(x, /*train=*/false, rng);
    EXPECT_EQ(layer.activation_bytes(), 0u) << layer.name();
    EXPECT_THROW(layer.backward(y), std::logic_error) << layer.name();
  };
  check(dense, x2);
  check(conv, x4);
  check(relu, x4);
  check(pool, x4);
}

TEST(Layers, DropoutInferenceIsIdentity) {
  Rng rng(5);
  Dropout d(0.5f);
  Tensor x({1, 8}, {1, 2, 3, 4, 5, 6, 7, 8});
  const Tensor y = d.forward(x, /*train=*/false, rng);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(Layers, DropoutTrainScalesSurvivors) {
  Rng rng(6);
  Dropout d(0.5f);
  Tensor x({1, 1000});
  x.fill(1.0f);
  const Tensor y = d.forward(x, /*train=*/true, rng);
  std::size_t zeros = 0;
  for (float v : y.flat()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(v, 2.0f);  // inverted dropout scale 1/(1-0.5)
    }
  }
  EXPECT_GT(zeros, 350u);
  EXPECT_LT(zeros, 650u);
}

TEST(Layers, DenseShapes) {
  Rng rng(1);
  Dense dense(3, 5);
  dense.init(rng);
  Tensor x({7, 3});
  const Tensor y = dense.forward(x, false, rng);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{7, 5}));
  EXPECT_EQ(dense.params().size(), 3u * 5u + 5u);
}

TEST(Model, PaperCnnParameterCountNear1_25M) {
  // Fig. 5: "relatively small with 1.25M parameters" on 3x32x32 input.
  Model m = Model::paper_cnn(3, 32);
  const double params = static_cast<double>(m.param_count());
  EXPECT_NEAR(params, 1.25e6, 0.02e6);
}

TEST(Model, GetSetParamsRoundTrip) {
  Rng rng(2);
  Model m = Model::mlp(4, {6}, 3);
  m.init(rng);
  auto p = m.get_params();
  p[0] = 42.0f;
  m.set_params(p);
  EXPECT_EQ(m.get_params()[0], 42.0f);
  EXPECT_THROW(m.set_params(std::vector<float>(p.size() + 1)),
               std::logic_error);
}

// --- the flat store ---------------------------------------------------------------

// Each layer's params() and grads() are consecutive slices of the model's
// two buffers, in layer order, and together they cover them.
void expect_views_tile_store(Model& m) {
  std::size_t off = 0;
  for (std::size_t i = 0; i < m.layer_count(); ++i) {
    Layer& l = m.layer(i);
    ASSERT_EQ(l.params().size(), l.grads().size()) << "layer " << i;
    if (l.params().empty()) continue;
    EXPECT_EQ(l.params().data(), m.params().data() + off) << "layer " << i;
    EXPECT_EQ(l.grads().data(), m.grads().data() + off) << "layer " << i;
    off += l.params().size();
  }
  EXPECT_EQ(off, m.param_count());
  EXPECT_EQ(m.grads().size(), m.param_count());
}

TEST(FlatStore, LayerViewsTileTheStoreInOrder) {
  Model cnn = Model::paper_cnn(3, 8);
  expect_views_tile_store(cnn);
  Model mlp = Model::mlp(6, {5, 4}, 3, 0.5f);
  expect_views_tile_store(mlp);
}

TEST(FlatStore, MovedModelKeepsItsViews) {
  Rng rng(20);
  Model a = Model::mlp(6, {5}, 3);
  a.init(rng);
  const float* store = a.params().data();
  const std::vector<float> want = a.get_params();
  Model b = std::move(a);
  EXPECT_EQ(b.params().data(), store);
  expect_views_tile_store(b);
  Model c = Model::mlp(2, {2}, 2);
  c = std::move(b);
  EXPECT_EQ(c.params().data(), store);
  expect_views_tile_store(c);
  EXPECT_EQ(c.get_params(), want);

  // Layer 0 is the Flatten: the store starts with layer 1's weights.
  c.params()[0] = 5.0f;
  EXPECT_EQ(c.layer(1).params()[0], 5.0f);
  c.layer(1).grads()[2] = 1.5f;
  EXPECT_EQ(c.get_grads()[2], 1.5f);
  c.zero_grads();
  EXPECT_EQ(c.layer(1).grads()[2], 0.0f);
  std::vector<float> p = c.get_params();
  p.back() = -3.0f;
  c.set_params(p);
  EXPECT_EQ(c.layer(c.layer_count() - 1).params().back(), -3.0f);

  // The moved-to model trains through its views.
  Tensor x({2, 1, 2, 3});
  for (float& v : x.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  const LossResult loss =
      softmax_cross_entropy(c.forward(x, true, rng), std::vector<int>{0, 2});
  c.backward(loss.grad);
  Adam adam(0.1f);
  adam.step(c.params(), c.grads());
  EXPECT_NE(c.get_params(), p);
}

// add() binds the store again after every layer: a layer initialized on
// its own brings its values along, and earlier layers keep theirs.
TEST(FlatStore, AddBindsEveryLayerAndKeepsItsValues) {
  Rng rng(21);
  auto first = std::make_unique<Dense>(4, 3);
  first->init(rng);
  const std::vector<float> first_params(first->params().begin(),
                                        first->params().end());
  Model m;
  m.add(std::make_unique<Flatten>());
  m.add(std::move(first));
  m.add(std::make_unique<ReLU>());
  m.add(std::make_unique<Dense>(3, 2));
  expect_views_tile_store(m);
  ASSERT_EQ(m.param_count(), first_params.size() + 3 * 2 + 2);
  const std::vector<float> p = m.get_params();
  EXPECT_TRUE(std::equal(first_params.begin(), first_params.end(),
                         p.begin()));
  for (std::size_t i = first_params.size(); i < p.size(); ++i) {
    EXPECT_EQ(p[i], 0.0f) << "param " << i;  // a fresh layer starts at 0
  }
  m.init(rng);
  EXPECT_NE(m.get_params(), p);
  expect_views_tile_store(m);
}

// --- loss -----------------------------------------------------------------------

TEST(Loss, UniformLogitsGiveLogC) {
  Tensor logits({2, 4});
  const LossResult r = softmax_cross_entropy(logits, std::vector<int>{0, 3});
  EXPECT_NEAR(r.loss, std::log(4.0), 1e-6);
}

TEST(Loss, ConfidentCorrectPredictionNearZeroLoss) {
  Tensor logits({1, 3}, {20.0f, 0.0f, 0.0f});
  const LossResult r = softmax_cross_entropy(logits, std::vector<int>{0});
  EXPECT_LT(r.loss, 1e-6);
  EXPECT_EQ(r.correct, 1u);
}

TEST(Loss, GradientSumsToZeroPerSample) {
  Rng rng(7);
  Tensor logits({3, 5});
  for (float& v : logits.flat()) v = static_cast<float>(rng.normal(0, 2));
  const LossResult r =
      softmax_cross_entropy(logits, std::vector<int>{1, 4, 0});
  for (std::size_t s = 0; s < 3; ++s) {
    double sum = 0.0;
    for (std::size_t c = 0; c < 5; ++c) sum += r.grad[s * 5 + c];
    EXPECT_NEAR(sum, 0.0, 1e-6);
  }
}

TEST(Loss, LargeLogitsAreStable) {
  Tensor logits({1, 3}, {1000.0f, 999.0f, -1000.0f});
  const LossResult r = softmax_cross_entropy(logits, std::vector<int>{1});
  EXPECT_TRUE(std::isfinite(r.loss));
  for (float g : r.grad.flat()) EXPECT_TRUE(std::isfinite(g));
}

// --- optimizers -------------------------------------------------------------------

TEST(Optimizers, AdamConvergesOnQuadratic) {
  // minimize f(x) = (x - 3)^2; gradient 2(x - 3).
  Adam opt(0.1f);
  std::vector<float> x{0.0f};
  for (int i = 0; i < 500; ++i) {
    const std::vector<float> g{2.0f * (x[0] - 3.0f)};
    opt.step(x, g);
  }
  EXPECT_NEAR(x[0], 3.0f, 1e-2f);
}

TEST(Optimizers, AdamFirstStepIsLearningRateSized) {
  Adam opt(0.01f);
  std::vector<float> p{0.0f};
  opt.step(p, std::vector<float>{123.0f});
  // Bias-corrected Adam: first step magnitude ~= lr regardless of g.
  EXPECT_NEAR(p[0], -0.01f, 1e-4f);
}

// --- fedavg -----------------------------------------------------------------------

TEST(FedAvg, WeightedAverageMatchesFormula) {
  std::vector<std::vector<float>> models{{1.0f, 0.0f}, {4.0f, 6.0f}};
  std::vector<double> weights{1.0, 2.0};
  const auto avg = federated_average(models, weights);
  EXPECT_FLOAT_EQ(avg[0], 3.0f);  // (1*1 + 2*4) / 3
  EXPECT_FLOAT_EQ(avg[1], 4.0f);  // (1*0 + 2*6) / 3
}

TEST(FedAvg, SingleModelIdentity) {
  std::vector<std::vector<float>> models{{7.0f, -2.0f}};
  std::vector<double> weights{3.0};
  const auto avg = federated_average(models, weights);
  EXPECT_EQ(avg, models[0]);
}

TEST(FedAvg, MismatchedSizesThrow) {
  std::vector<std::vector<float>> models{{1.0f}, {1.0f, 2.0f}};
  std::vector<double> weights{1.0, 1.0};
  EXPECT_THROW(federated_average(models, weights), std::logic_error);
}

// --- data -------------------------------------------------------------------------

TEST(Data, SyntheticShapesAndLabels) {
  Rng rng(8);
  SyntheticSpec spec = mnist_like();
  spec.train_samples = 500;
  spec.test_samples = 100;
  const TrainTest tt = make_synthetic(spec, rng);
  EXPECT_EQ(tt.train.size(), 500u);
  EXPECT_EQ(tt.test.size(), 100u);
  EXPECT_EQ(tt.train.sample_floats(), 28u * 28u);
  for (int l : tt.train.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 10);
  }
  // All ten classes present.
  std::map<int, int> hist;
  for (int l : tt.train.labels) ++hist[l];
  EXPECT_EQ(hist.size(), 10u);
}

TEST(Data, DeterministicForSeed) {
  SyntheticSpec spec = mnist_like();
  spec.train_samples = 50;
  spec.test_samples = 10;
  Rng a(9), b(9);
  const TrainTest ta = make_synthetic(spec, a);
  const TrainTest tb = make_synthetic(spec, b);
  EXPECT_EQ(ta.train.images, tb.train.images);
  EXPECT_EQ(ta.train.labels, tb.train.labels);
}

TEST(Data, IidPartitionCoversAllSamplesOnce) {
  Rng rng(10);
  SyntheticSpec spec = mnist_like();
  spec.train_samples = 100;
  spec.test_samples = 10;
  const TrainTest tt = make_synthetic(spec, rng);
  const auto parts = partition_iid(tt.train, 7, rng);
  ASSERT_EQ(parts.size(), 7u);
  std::vector<std::size_t> all;
  for (const auto& p : parts) all.insert(all.end(), p.begin(), p.end());
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(all[i], i);
}

TEST(Data, NonIid0IsTwoClassesPerPeer) {
  Rng rng(11);
  SyntheticSpec spec = mnist_like();
  spec.train_samples = 1000;
  spec.test_samples = 10;
  const TrainTest tt = make_synthetic(spec, rng);
  const auto parts = partition_non_iid(tt.train, 5, 0.0, rng);
  for (const auto& p : parts) {
    std::map<int, int> classes;
    for (std::size_t idx : p) ++classes[tt.train.labels[idx]];
    EXPECT_EQ(classes.size(), 2u);
  }
}

TEST(Data, NonIid5IsMostlyTwoClasses) {
  Rng rng(12);
  SyntheticSpec spec = mnist_like();
  spec.train_samples = 2000;
  spec.test_samples = 10;
  const TrainTest tt = make_synthetic(spec, rng);
  const auto parts = partition_non_iid(tt.train, 4, 0.05, rng);
  for (const auto& p : parts) {
    std::map<int, int> classes;
    for (std::size_t idx : p) ++classes[tt.train.labels[idx]];
    EXPECT_GE(classes.size(), 3u);  // some off-class spill
    // Top-2 classes hold ~95%.
    std::vector<int> counts;
    for (auto& [c, n] : classes) counts.push_back(n);
    std::sort(counts.rbegin(), counts.rend());
    const double top2 = counts[0] + counts[1];
    const double total = std::accumulate(counts.begin(), counts.end(), 0);
    EXPECT_NEAR(top2 / total, 0.95, 0.02);
  }
}

TEST(Data, BatchGathersRequestedSamples) {
  Rng rng(13);
  SyntheticSpec spec;
  spec.height = 2;
  spec.width = 2;
  spec.train_samples = 20;
  spec.test_samples = 10;
  const TrainTest tt = make_synthetic(spec, rng);
  const std::vector<std::size_t> idx{3, 7};
  const Tensor b = tt.train.batch(idx);
  EXPECT_EQ(b.shape(), (std::vector<std::size_t>{2, 1, 2, 2}));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(b[i], tt.train.image(3)[i]);
    EXPECT_EQ(b[4 + i], tt.train.image(7)[i]);
  }
}

// --- training -----------------------------------------------------------------------

TEST(Trainer, LossDecreasesOverRounds) {
  Rng rng(14);
  SyntheticSpec spec = mnist_like();
  spec.train_samples = 600;
  spec.test_samples = 200;
  const TrainTest tt = make_synthetic(spec, rng);
  Model m = Model::mlp(28 * 28, {32});
  m.init(rng);
  std::vector<std::size_t> idx(tt.train.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  PeerTrainer trainer(std::move(m), std::make_unique<Adam>(1e-3f), tt.train,
                      idx, Rng(15));
  const double first = trainer.train_round({});
  double last = first;
  for (int i = 0; i < 5; ++i) last = trainer.train_round({});
  EXPECT_LT(last, first * 0.8);
  const EvalResult ev = trainer.evaluate(tt.test);
  EXPECT_GT(ev.accuracy, 0.3);  // far above the 10% chance level
}

TEST(Trainer, EvaluateAccuracyBoundsAndDeterminism) {
  Rng rng(16);
  SyntheticSpec spec = mnist_like();
  spec.train_samples = 100;
  spec.test_samples = 50;
  const TrainTest tt = make_synthetic(spec, rng);
  Model m = Model::mlp(28 * 28, {16});
  m.init(rng);
  Rng e1(1), e2(1);
  const EvalResult a = evaluate_model(m, tt.test, e1);
  const EvalResult b = evaluate_model(m, tt.test, e2);
  EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy);
  EXPECT_GE(a.accuracy, 0.0);
  EXPECT_LE(a.accuracy, 1.0);
}

}  // namespace
}  // namespace p2pfl::fl
