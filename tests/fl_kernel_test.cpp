// The fl kernels in the fast suite, so the sanitizer jobs cover them, and
// the model's flat store: the in-place Adam step against the copying
// sequence it replaced, the chunked step against the serial one, and when
// a model frees its activations; and the streamed FedAvg against the
// two-pass form it replaced.
// The Conv2d and Dense kernels run against the direct loops they
// replaced: they promise each output element the direct loop's arithmetic
// (the same float products, summed in the same order into the same
// accumulator type), so every element must compare equal with ==, at any
// worker count. They run at the widest vector level the CPU has, which
// the tests print once.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iostream>
#include <span>
#include <stdexcept>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "fl/data.hpp"
#include "fl/fedavg.hpp"
#include "common/kernel_isa.hpp"
#include "fl/layers.hpp"
#include "fl/loss.hpp"
#include "fl/model.hpp"
#include "fl/optimizer.hpp"
#include "fl/trainer.hpp"

namespace p2pfl::fl {
namespace {

// --- the direct loops (the oracle) -------------------------------------------
// Conv2d::forward and Conv2d::backward as they were before the kernels
// were vectorized, with the members turned into parameters.

Tensor direct_forward(std::span<const float> params, std::size_t in_c,
                      std::size_t filters, std::size_t k, const Tensor& x) {
  const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(k / 2);
  Tensor y({batch, filters, h, w});
  const float* wt = params.data();
  const float* bias = params.data() + filters * in_c * k * k;

  for (std::size_t s = 0; s < batch; ++s) {
    const float* xin = x.data() + s * in_c * h * w;
    float* yout = y.data() + s * filters * h * w;
    for (std::size_t f = 0; f < filters; ++f) {
      const float* wf = wt + f * in_c * k * k;
      for (std::size_t oy = 0; oy < h; ++oy) {
        for (std::size_t ox = 0; ox < w; ++ox) {
          double acc = bias[f];
          for (std::size_t c = 0; c < in_c; ++c) {
            const float* xc = xin + c * h * w;
            const float* wc = wf + c * k * k;
            for (std::size_t ky = 0; ky < k; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy + ky) - pad;
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kx = 0; kx < k; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox + kx) - pad;
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) {
                  continue;
                }
                acc += wc[ky * k + kx] * xc[iy * w + ix];
              }
            }
          }
          yout[f * h * w + oy * w + ox] = static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

// Accumulates into `grads` (weights then bias) and returns the input
// gradient.
Tensor direct_backward(std::span<const float> params, std::span<float> grads,
                       std::size_t in_c, std::size_t filters, std::size_t k,
                       const Tensor& x, const Tensor& grad_out) {
  const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::ptrdiff_t pad = static_cast<std::ptrdiff_t>(k / 2);
  const float* wt = params.data();
  float* gw = grads.data();
  float* gb = grads.data() + filters * in_c * k * k;
  Tensor gx({batch, in_c, h, w});

  // Serial over batch: parameter-gradient accumulation is shared.
  for (std::size_t s = 0; s < batch; ++s) {
    const float* xin = x.data() + s * in_c * h * w;
    const float* gy = grad_out.data() + s * filters * h * w;
    float* gxi = gx.data() + s * in_c * h * w;
    for (std::size_t f = 0; f < filters; ++f) {
      const float* wf = wt + f * in_c * k * k;
      float* gwf = gw + f * in_c * k * k;
      const float* gyf = gy + f * h * w;
      for (std::size_t oy = 0; oy < h; ++oy) {
        for (std::size_t ox = 0; ox < w; ++ox) {
          const float g = gyf[oy * w + ox];
          if (g == 0.0f) continue;
          gb[f] += g;
          for (std::size_t c = 0; c < in_c; ++c) {
            const float* xc = xin + c * h * w;
            float* gxc = gxi + c * h * w;
            const float* wc = wf + c * k * k;
            float* gwc = gwf + c * k * k;
            for (std::size_t ky = 0; ky < k; ++ky) {
              const std::ptrdiff_t iy =
                  static_cast<std::ptrdiff_t>(oy + ky) - pad;
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
              for (std::size_t kx = 0; kx < k; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox + kx) - pad;
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
                gwc[ky * k + kx] += g * xc[iy * w + ix];
                gxc[iy * w + ix] += g * wc[ky * k + kx];
              }
            }
          }
        }
      }
    }
  }
  return gx;
}

// Dense::forward and Dense::backward as they were before the samples
// moved innermost, serial over the batch.

Tensor direct_dense_forward(std::span<const float> params, std::size_t in,
                            std::size_t out, const Tensor& x) {
  const std::size_t batch = x.dim(0);
  Tensor y({batch, out});
  const float* w = params.data();
  const float* b = params.data() + out * in;
  for (std::size_t s = 0; s < batch; ++s) {
    const float* xin = x.data() + s * in;
    float* yout = y.data() + s * out;
    for (std::size_t o = 0; o < out; ++o) {
      const float* wrow = w + o * in;
      double acc = b[o];
      for (std::size_t i = 0; i < in; ++i) acc += wrow[i] * xin[i];
      yout[o] = static_cast<float>(acc);
    }
  }
  return y;
}

// Accumulates into `grads` (weights then bias) and returns the input
// gradient.
Tensor direct_dense_backward(std::span<const float> params,
                             std::span<float> grads, std::size_t in,
                             std::size_t out, const Tensor& x,
                             const Tensor& grad_out) {
  const std::size_t batch = x.dim(0);
  const float* w = params.data();
  float* gw = grads.data();
  float* gb = grads.data() + out * in;

  for (std::size_t s = 0; s < batch; ++s) {
    const float* xin = x.data() + s * in;
    const float* gy = grad_out.data() + s * out;
    for (std::size_t o = 0; o < out; ++o) {
      float* gwrow = gw + o * in;
      const float g = gy[o];
      for (std::size_t i = 0; i < in; ++i) gwrow[i] += g * xin[i];
      gb[o] += g;
    }
  }

  Tensor gx({batch, in});
  for (std::size_t s = 0; s < batch; ++s) {
    const float* gy = grad_out.data() + s * out;
    float* gxi = gx.data() + s * in;
    for (std::size_t o = 0; o < out; ++o) {
      const float* wrow = w + o * in;
      const float g = gy[o];
      for (std::size_t i = 0; i < in; ++i) gxi[i] += g * wrow[i];
    }
  }
  return gx;
}

// --- the comparison ----------------------------------------------------------

// Prints, once per run, the vector level the kernels run at, so a test log
// shows which build was checked.
void note_isa() {
  static const bool noted = [] {
    std::cout << "[ fl kernels ] running the " << isa_name(cpu_isa())
              << " build\n";
    return true;
  }();
  (void)noted;
}

struct Shape {
  std::size_t batch, in_c, filters, h, w, k;
};

std::string describe(const Shape& s) {
  std::ostringstream os;
  os << "batch " << s.batch << ", " << s.in_c << "->" << s.filters << " at "
     << s.h << "x" << s.w << ", kernel " << s.k;
  return os.str();
}

// Element-wise ==, naming the first differing element.
::testing::AssertionResult all_equal(const char* what,
                                     std::span<const float> got,
                                     std::span<const float> want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << what << ": " << got.size() << " elements, want " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(got[i] == want[i])) {
      return ::testing::AssertionFailure()
             << what << "[" << i << "] = " << got[i] << ", want " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

Tensor random_tensor(std::vector<std::size_t> shape, Rng& rng, double zeros,
                     double lo, double hi) {
  Tensor t(std::move(shape));
  for (float& v : t.flat()) {
    v = rng.chance(zeros) ? 0.0f : static_cast<float>(rng.uniform(lo, hi));
  }
  return t;
}

// Runs Conv2d at 1 and 4 workers against the direct loops: the forward
// output, then two backward calls without zero_grads (the second must
// accumulate onto the first), each checked element by element.
void expect_matches_direct(const Shape& s, double grad_zeros,
                           std::uint64_t seed) {
  SCOPED_TRACE(describe(s) + ", upstream zeros " + std::to_string(grad_zeros));
  note_isa();
  Rng rng(seed);
  Conv2d conv(s.in_c, s.filters, s.k);
  conv.init(rng);
  const std::span<float> params = conv.params();
  for (std::size_t i = params.size() - s.filters; i < params.size(); ++i) {
    params[i] = static_cast<float>(rng.uniform(-0.5, 0.5));  // biases
  }
  // Non-negative inputs with exact zeros, as a ReLU leaves them.
  const Tensor x =
      random_tensor({s.batch, s.in_c, s.h, s.w}, rng, 0.3, 0.0, 2.0);
  const Tensor gy = random_tensor({s.batch, s.filters, s.h, s.w}, rng,
                                  grad_zeros, -1.0, 1.0);

  const Tensor want_y = direct_forward(params, s.in_c, s.filters, s.k, x);
  std::vector<float> want_grads(params.size(), 0.0f);
  const Tensor want_gx =
      direct_backward(params, want_grads, s.in_c, s.filters, s.k, x, gy);
  std::vector<float> want_grads2 = want_grads;
  direct_backward(params, want_grads2, s.in_c, s.filters, s.k, x, gy);

  for (std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    set_parallel_workers(workers);
    Rng unused(0);
    conv.zero_grads();
    const Tensor y = conv.forward(x, /*train=*/true, unused);
    EXPECT_EQ(y.shape(), want_y.shape());
    EXPECT_TRUE(all_equal("forward", y.flat(), want_y.flat()));
    const Tensor gx = conv.backward(gy);
    EXPECT_EQ(gx.shape(), x.shape());
    EXPECT_TRUE(all_equal("input grad", gx.flat(), want_gx.flat()));
    EXPECT_TRUE(all_equal("param grads", conv.grads(), want_grads));
    const Tensor gx2 = conv.backward(gy);
    EXPECT_TRUE(all_equal("second input grad", gx2.flat(), want_gx.flat()));
    EXPECT_TRUE(
        all_equal("accumulated param grads", conv.grads(), want_grads2));
  }
  set_parallel_workers(0);  // restore the hardware default
}

// The four conv layers of the Fig. 5 CNN at a training batch of 8, with a
// dense upstream gradient and with one that is ~85% zeros, as after ReLU
// and max pooling.
TEST(ConvOracle, PaperConv1) {
  expect_matches_direct({8, 3, 32, 32, 32, 3}, 0.0, 11);
  expect_matches_direct({8, 3, 32, 32, 32, 3}, 0.85, 12);
}

TEST(ConvOracle, PaperConv2) {
  expect_matches_direct({8, 32, 32, 32, 32, 3}, 0.0, 21);
  expect_matches_direct({8, 32, 32, 32, 32, 3}, 0.85, 22);
}

TEST(ConvOracle, PaperConv3) {
  expect_matches_direct({8, 32, 64, 16, 16, 3}, 0.0, 31);
  expect_matches_direct({8, 32, 64, 16, 16, 3}, 0.85, 32);
}

TEST(ConvOracle, PaperConv4) {
  expect_matches_direct({8, 64, 64, 16, 16, 3}, 0.0, 41);
  expect_matches_direct({8, 64, 64, 16, 16, 3}, 0.85, 42);
}

TEST(ConvOracle, EdgeShapes) {
  const Shape shapes[] = {
      {1, 4, 5, 8, 8, 3},   // batch 1
      {3, 4, 5, 8, 8, 3},   // batch 3: uneven split over 4 workers
      {3, 1, 6, 8, 8, 3},   // one input channel
      {3, 4, 5, 6, 10, 3},  // non-square input
      {3, 4, 5, 6, 10, 1},  // kernel 1: no padding
      {3, 4, 5, 6, 10, 5},  // kernel 5
      {3, 4, 5, 2, 2, 5},   // input smaller than the kernel
  };
  std::uint64_t seed = 50;
  for (const Shape& s : shapes) {
    expect_matches_direct(s, 0.0, ++seed);
    expect_matches_direct(s, 0.85, ++seed);
  }
}

// Runs Dense at 1 and 4 workers against the direct loops, as
// expect_matches_direct does for Conv2d. The inputs are non-negative with
// exact zeros, as a ReLU leaves them. With `cancel` set, inputs 0 and 1
// of every sample are 2^40 and every output weighs them w and -w: each
// double chain then passes through a partial sum near 2^35, which rounds
// away low bits, so the order of the chain's terms shows in the outputs.
void expect_dense_matches_direct(std::size_t batch, std::size_t in,
                                 std::size_t out, std::uint64_t seed,
                                 bool cancel = false) {
  SCOPED_TRACE("batch " + std::to_string(batch) + ", " + std::to_string(in) +
               "->" + std::to_string(out) + (cancel ? ", cancelling" : ""));
  note_isa();
  Rng rng(seed);
  Dense dense(in, out);
  dense.init(rng);
  const std::span<float> params = dense.params();
  for (std::size_t i = params.size() - out; i < params.size(); ++i) {
    params[i] = static_cast<float>(rng.uniform(-0.5, 0.5));  // biases
  }
  Tensor x = random_tensor({batch, in}, rng, 0.3, 0.0, 2.0);
  if (cancel) {
    for (std::size_t o = 0; o < out; ++o) params[o * in + 1] = -params[o * in];
    for (std::size_t s = 0; s < batch; ++s) {
      x[s * in] = x[s * in + 1] = std::ldexp(1.0f, 40);
    }
  }
  const Tensor gy = random_tensor({batch, out}, rng, 0.1, -1.0, 1.0);

  const Tensor want_y = direct_dense_forward(params, in, out, x);
  std::vector<float> want_grads(params.size(), 0.0f);
  const Tensor want_gx =
      direct_dense_backward(params, want_grads, in, out, x, gy);
  std::vector<float> want_grads2 = want_grads;
  direct_dense_backward(params, want_grads2, in, out, x, gy);

  for (std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    set_parallel_workers(workers);
    Rng unused(0);
    dense.zero_grads();
    const Tensor y = dense.forward(x, /*train=*/true, unused);
    EXPECT_EQ(y.shape(), want_y.shape());
    EXPECT_TRUE(all_equal("forward", y.flat(), want_y.flat()));
    const Tensor gx = dense.backward(gy);
    EXPECT_EQ(gx.shape(), x.shape());
    EXPECT_TRUE(all_equal("input grad", gx.flat(), want_gx.flat()));
    EXPECT_TRUE(all_equal("param grads", dense.grads(), want_grads));
    const Tensor gx2 = dense.backward(gy);
    EXPECT_TRUE(all_equal("second input grad", gx2.flat(), want_gx.flat()));
    EXPECT_TRUE(
        all_equal("accumulated param grads", dense.grads(), want_grads2));
  }
  set_parallel_workers(0);  // restore the hardware default
}

// The Fig. 5 CNN's two dense layers, at a training batch of 8 and at
// evaluate_model's batch of 40.
TEST(DenseOracle, PaperDense) {
  expect_dense_matches_direct(8, 4096, 287, 61);
  expect_dense_matches_direct(40, 4096, 287, 62);
  expect_dense_matches_direct(8, 287, 10, 63);
}

// The CI-scale MLP of Figs. 6-9 and perfbench system_1k's 16-4-10 MLP.
TEST(DenseOracle, MlpShapes) {
  expect_dense_matches_direct(50, 784, 64, 71);
  expect_dense_matches_direct(4, 16, 4, 72);
  expect_dense_matches_direct(4, 4, 10, 73);
}

// One sample, and three samples split unevenly over 4 workers.
TEST(DenseOracle, EdgeShapes) {
  expect_dense_matches_direct(1, 7, 5, 81);
  expect_dense_matches_direct(3, 7, 5, 82);
}

// Partial sums that round: an output is exact only if its terms are added
// in the direct loop's order.
TEST(DenseOracle, CancellingTerms) {
  expect_dense_matches_direct(8, 4096, 287, 65, /*cancel=*/true);
  expect_dense_matches_direct(4, 16, 4, 75, /*cancel=*/true);
  expect_dense_matches_direct(3, 7, 5, 85, /*cancel=*/true);
}

// Model::backward stops at the lowest layer with parameters and asks it
// for its parameter gradients only. Those gradients must equal the ones a
// loop that runs every layer's full backward accumulates.
void expect_backward_matches_full(Model model,
                                  std::vector<std::size_t> input_shape,
                                  std::uint64_t seed) {
  note_isa();
  Rng rng(seed);
  model.init(rng);
  const std::size_t batch = input_shape[0];
  const Tensor x = random_tensor(std::move(input_shape), rng, 0.3, 0.0, 1.0);
  const Tensor gy = random_tensor({batch, 10}, rng, 0.0, -1.0, 1.0);
  for (std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    set_parallel_workers(workers);
    Rng train_rng(seed + 1);  // dropout masks
    model.forward(x, /*train=*/true, train_rng);
    model.zero_grads();
    model.backward(gy);
    const std::vector<float> got = model.get_grads();
    model.zero_grads();
    Tensor g = gy;
    for (std::size_t i = model.layer_count(); i-- > 0;) {
      g = model.layer(i).backward(g);
    }
    EXPECT_TRUE(all_equal("param grads", got, model.get_grads()));
  }
  set_parallel_workers(0);  // restore the hardware default
}

TEST(ModelBackward, PaperCnnMatchesFullBackward) {
  expect_backward_matches_full(Model::paper_cnn(3, 32), {8, 3, 32, 32}, 91);
}

TEST(ModelBackward, MlpMatchesFullBackward) {
  expect_backward_matches_full(Model::mlp(784, {64}), {50, 1, 28, 28}, 92);
}

// --- the flat store ------------------------------------------------------------
// PeerTrainer::train_round as it was before the model kept one flat store:
// it copied the parameters and gradients out, stepped the copy with Adam,
// and copied it back. The step here is Adam::step as it was then, built
// with this file's flags, so its sqrt and divisions run scalar.

class CopyingAdam {
 public:
  explicit CopyingAdam(float lr) : lr_(lr) {}

  void step(std::span<float> params, std::span<const float> grads) {
    if (m_.size() != params.size()) {
      m_.assign(params.size(), 0.0);
      v_.assign(params.size(), 0.0);
      t_ = 0;
    }
    ++t_;
    const double b1 = beta1_, b2 = beta2_;
    const double bc1 = 1.0 - std::pow(b1, static_cast<double>(t_));
    const double bc2 = 1.0 - std::pow(b2, static_cast<double>(t_));
    for (std::size_t i = 0; i < params.size(); ++i) {
      const double g = grads[i];
      m_[i] = b1 * m_[i] + (1.0 - b1) * g;
      v_[i] = b2 * v_[i] + (1.0 - b2) * g * g;
      const double mhat = m_[i] / bc1;
      const double vhat = v_[i] / bc2;
      params[i] -= static_cast<float>(lr_ * mhat /
                                      (std::sqrt(vhat) + eps_));
    }
  }

 private:
  float lr_, beta1_ = 0.9f, beta2_ = 0.999f, eps_ = 1e-8f;
  std::vector<double> m_, v_;
  std::uint64_t t_ = 0;
};

double copying_train_round(Model& model, CopyingAdam& optimizer,
                           const Dataset& data,
                           std::vector<std::size_t>& indices, Rng& rng,
                           const TrainOptions& opts) {
  double total_loss = 0.0;
  std::size_t batches = 0;
  for (std::size_t epoch = 0; epoch < opts.epochs; ++epoch) {
    rng.shuffle(indices);
    for (std::size_t off = 0; off < indices.size();
         off += opts.batch_size) {
      const std::size_t count =
          std::min(opts.batch_size, indices.size() - off);
      const std::span<const std::size_t> idx(indices.data() + off, count);
      const Tensor x = data.batch(idx);
      std::vector<int> labels(count);
      for (std::size_t i = 0; i < count; ++i) {
        labels[i] = data.labels[idx[i]];
      }
      model.zero_grads();
      const Tensor logits = model.forward(x, /*train=*/true, rng);
      LossResult lr = softmax_cross_entropy(logits, labels);
      model.backward(lr.grad);
      auto params = model.get_params();
      const auto grads = model.get_grads();
      optimizer.step(params, grads);
      model.set_params(params);
      total_loss += lr.loss;
      ++batches;
    }
  }
  return batches > 0 ? total_loss / static_cast<double>(batches) : 0.0;
}

// Bit patterns equal, so +0.0 against -0.0 counts as a difference.
::testing::AssertionResult same_bits(std::span<const float> got,
                                     std::span<const float> want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << got.size() << " elements, want " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(got[i]) !=
        std::bit_cast<std::uint32_t>(want[i])) {
      return ::testing::AssertionFailure()
             << "[" << i << "] = " << got[i] << ", want " << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// One train_round of three Adam steps over `samples` training samples,
// against the copying round from the same weights, data order and dropout
// draws, at 1 and 4 workers.
void expect_in_place_round_matches_copying(Model (*build)(),
                                           const SyntheticSpec& spec,
                                           std::size_t samples,
                                           std::uint64_t seed) {
  note_isa();
  Rng data_rng(seed);
  const TrainTest tt = make_synthetic(spec, data_rng);
  std::vector<std::size_t> indices(samples);
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  const TrainOptions opts{.epochs = 1, .batch_size = indices.size() / 3};
  for (std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    set_parallel_workers(workers);
    Rng init_rng(seed + 1);
    Model want = build();
    want.init(init_rng);
    const std::vector<float> start = want.get_params();
    Model model = build();
    model.set_params(start);
    PeerTrainer trainer(std::move(model), std::make_unique<Adam>(1e-3f),
                        tt.train, indices, Rng(seed + 2));
    CopyingAdam adam(1e-3f);
    std::vector<std::size_t> want_indices = indices;
    Rng want_rng(seed + 2);
    const double want_loss = copying_train_round(
        want, adam, tt.train, want_indices, want_rng, opts);
    EXPECT_EQ(trainer.train_round(opts), want_loss);
    EXPECT_TRUE(same_bits(trainer.params(), want.params()));
    EXPECT_NE(want.get_params(), start);  // the steps moved the weights
  }
  set_parallel_workers(0);  // restore the hardware default
}

TEST(FlatStore, InPlaceAdamMatchesCopyingStepOnPaperCnn) {
  SyntheticSpec spec = cifar10_like();
  spec.train_samples = 12;
  spec.test_samples = 10;
  expect_in_place_round_matches_copying(
      [] { return Model::paper_cnn(3, 32); }, spec, 6, 101);
}

TEST(FlatStore, InPlaceAdamMatchesCopyingStepOnMlp) {
  SyntheticSpec spec = mnist_like();
  spec.train_samples = 150;
  spec.test_samples = 10;
  expect_in_place_round_matches_copying(
      [] { return Model::mlp(28 * 28, {64}, 10, 0.25f); }, spec, 150, 102);
}

// Adam::step runs a large model's step in chunks over the workers. Three
// steps from the same parameters and gradients must give the serial
// step's bits (CopyingAdam's loop) at 1 to 4 workers, above and below the
// size at which the step starts to share its range.
TEST(AdamOracle, ChunkedStepMatchesSerialStep) {
  note_isa();
  for (std::size_t size : {118u, 40'000u, 1'244'287u}) {
    Rng rng(size);
    std::vector<float> start(size);
    std::vector<std::vector<float>> grads(3, std::vector<float>(size));
    for (std::size_t i = 0; i < size; ++i) {
      start[i] = static_cast<float>(rng.normal(0.0, 0.1));
      for (std::vector<float>& g : grads) {
        const double u = rng.uniform(0.0, 1.0);
        g[i] = u < 0.1 ? 0.0f
                       : static_cast<float>(rng.normal(0.0, 1.0) *
                                            std::pow(10.0, rng.uniform(-8, 2)));
      }
    }
    std::vector<float> want = start;
    CopyingAdam serial(1e-3f);
    std::vector<std::vector<float>> want_after;
    for (const std::vector<float>& g : grads) {
      serial.step(want, g);
      want_after.push_back(want);
    }
    for (std::size_t workers = 1; workers <= 4; ++workers) {
      SCOPED_TRACE(::testing::Message()
                   << "size " << size << ", workers " << workers);
      set_parallel_workers(workers);
      std::vector<float> got = start;
      Adam adam(1e-3f);
      for (std::size_t t = 0; t < grads.size(); ++t) {
        adam.step(got, grads[t]);
        EXPECT_TRUE(same_bits(got, want_after[t])) << "step " << t + 1;
      }
    }
  }
  set_parallel_workers(0);  // restore the hardware default
}

std::size_t activation_bytes(Model& model) {
  std::size_t bytes = 0;
  for (std::size_t i = 0; i < model.layer_count(); ++i) {
    bytes += model.layer(i).activation_bytes();
  }
  return bytes;
}

// A model holds its activations from a forward until the round or the
// evaluation that ran it ends.
TEST(FlatStore, TrainRoundAndEvaluateFreeActivations) {
  SyntheticSpec spec = cifar10_like();
  spec.height = 8;
  spec.width = 8;
  spec.train_samples = 10;
  spec.test_samples = 10;
  Rng rng(103);
  const TrainTest tt = make_synthetic(spec, rng);
  Model model = Model::paper_cnn(3, 8);
  model.init(rng);
  PeerTrainer trainer(std::move(model), std::make_unique<Adam>(1e-3f),
                      tt.train, {0, 1, 2, 3, 4, 5, 6, 7}, Rng(104));
  Model& m = trainer.model();
  const std::vector<std::size_t> idx = {0, 1, 2, 3};
  m.forward(tt.train.batch(idx), /*train=*/true, rng);
  // Every layer but the Flatten keeps something for backward.
  std::size_t holding = 0;
  for (std::size_t i = 0; i < m.layer_count(); ++i) {
    if (m.layer(i).activation_bytes() > 0) ++holding;
  }
  EXPECT_EQ(holding, m.layer_count() - 1);

  trainer.train_round({.epochs = 1, .batch_size = 4});
  EXPECT_EQ(activation_bytes(m), 0u);

  m.forward(tt.train.batch(idx), /*train=*/true, rng);
  EXPECT_GT(activation_bytes(m), 0u);
  evaluate_model(m, tt.test, rng, 0, 4);
  EXPECT_EQ(activation_bytes(m), 0u);
}

// evaluate_model steps through the test set batch_size samples at a time;
// a batch size of 0 would never advance.
TEST(EvaluateModel, RejectsZeroBatchSize) {
  Dataset test;
  test.height = 2;
  test.width = 2;
  test.classes = 2;
  test.images = {0.0f, 1.0f, 0.0f, 1.0f, 1.0f, 0.0f, 1.0f, 0.0f};
  test.labels = {0, 1};
  Model model = Model::mlp(4, {3}, 2);
  Rng rng(1);
  model.init(rng);
  EXPECT_THROW(evaluate_model(model, test, rng, 0, 0), std::logic_error);
  const EvalResult ok = evaluate_model(model, test, rng, 0, 1);
  EXPECT_GE(ok.accuracy, 0.0);
  EXPECT_LE(ok.accuracy, 1.0);
}

// --- streamed FedAvg against the two-pass form ---------------------------------
// fl::federated_average as it was before it streamed, kept verbatim: a
// model-sized double accumulator filled model by model, then rounded to
// float in a second pass.
std::vector<float> two_pass_federated_average(
    std::span<const std::vector<float>> models,
    std::span<const double> weights) {
  P2PFL_CHECK(!models.empty());
  P2PFL_CHECK(models.size() == weights.size());
  const std::size_t dim = models.front().size();
  double total_weight = 0.0;
  for (double w : weights) {
    P2PFL_CHECK(w > 0.0);
    total_weight += w;
  }
  std::vector<double> acc(dim, 0.0);
  for (std::size_t i = 0; i < models.size(); ++i) {
    P2PFL_CHECK(models[i].size() == dim);
    const double w = weights[i] / total_weight;
    for (std::size_t j = 0; j < dim; ++j) {
      acc[j] += w * static_cast<double>(models[i][j]);
    }
  }
  std::vector<float> out(dim);
  for (std::size_t j = 0; j < dim; ++j) out[j] = static_cast<float>(acc[j]);
  return out;
}

// Elements over twelve decades with +0.0 and -0.0 mixed in; element 0 is
// -0.0 in every model (its sum must be +0.0, as 0.0 + -0.0 is), and, from
// three models on, at a tenth of the elements models 0 and 1 hold +2^31
// and -2^31. The test gives those two equal weights, so their terms cancel
// exactly when added first and swallow the small terms when added last:
// the model order of a sum shows.
std::vector<std::vector<float>> fedavg_models(std::size_t n, std::size_t dim,
                                              Rng& rng) {
  std::vector<std::vector<float>> models(n, std::vector<float>(dim));
  for (std::size_t j = 0; j < dim; ++j) {
    const bool cancel = n >= 3 && rng.chance(0.1);
    for (std::size_t i = 0; i < n; ++i) {
      const double u = rng.uniform(0.0, 1.0);
      float& x = models[i][j];
      if (j == 0) {
        x = -0.0f;
      } else if (cancel && i < 2) {
        x = i == 0 ? 0x1.0p31f : -0x1.0p31f;
      } else if (u < 0.05) {
        x = 0.0f;
      } else if (u < 0.10) {
        x = -0.0f;
      } else {
        x = static_cast<float>(rng.normal(0.0, 1.0) *
                               std::pow(10.0, rng.uniform(-6.0, 6.0)));
      }
    }
  }
  return models;
}

// 1 to 7 models with uneven weights, at dimensions on both sides of the
// stream's block edges, with few blocks (a top-level call hands out at
// most 4 x workers blocks one at a time) and many (one contiguous chunk
// per worker), at 1, 3 and 4 workers, compared bit for bit (same_bits
// above), so +0.0 against -0.0 counts.
TEST(FedAvgOracle, StreamedMatchesTwoPassBitForBit) {
  Rng rng(401);
  for (std::size_t n = 1; n <= 7; ++n) {
    for (std::size_t dim :
         {1u, 5u, 2047u, 2048u, 2049u, 6161u, 30000u, 70001u}) {
      SCOPED_TRACE("n " + std::to_string(n) + ", dim " + std::to_string(dim));
      const auto models = fedavg_models(n, dim, rng);
      std::vector<double> weights(n);
      for (double& w : weights) w = std::pow(10.0, rng.uniform(-2.0, 3.0));
      if (n >= 3) weights[1] = weights[0];  // see fedavg_models
      const std::vector<float> want =
          two_pass_federated_average(models, weights);
      for (std::size_t workers : {1u, 3u, 4u}) {
        SCOPED_TRACE("workers " + std::to_string(workers));
        set_parallel_workers(workers);
        EXPECT_TRUE(same_bits(federated_average(models, weights), want));
      }
    }
  }
  set_parallel_workers(0);  // restore the hardware default
}

// The checks stay: a size mismatch and a non-positive weight are errors.
TEST(FedAvgOracle, RejectsMismatchedModelsAndWeights) {
  const std::vector<std::vector<float>> models = {{1.0f, 2.0f}, {3.0f}};
  EXPECT_THROW(federated_average(models, std::vector<double>{1.0, 1.0}),
               std::logic_error);
  const std::vector<std::vector<float>> even = {{1.0f}, {3.0f}};
  EXPECT_THROW(federated_average(even, std::vector<double>{1.0, 0.0}),
               std::logic_error);
  EXPECT_THROW(federated_average(even, std::vector<double>{1.0}),
               std::logic_error);
}

}  // namespace
}  // namespace p2pfl::fl
