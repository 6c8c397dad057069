#include "fl/layers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/parallel.hpp"
#include "common/kernel_isa.hpp"

namespace p2pfl::fl {

// --- Layer -------------------------------------------------------------------

Layer::Layer(std::size_t param_count)
    : own_(2 * param_count),
      params_(own_.data(), param_count),
      grads_(own_.data() + param_count, param_count) {}

void Layer::bind(std::span<float> params, std::span<float> grads) {
  P2PFL_CHECK(params.size() == params_.size() &&
              grads.size() == grads_.size());
  std::copy(params_.begin(), params_.end(), params.begin());
  std::copy(grads_.begin(), grads_.end(), grads.begin());
  params_ = params;
  grads_ = grads;
  std::vector<float>().swap(own_);
}

// Dense, ReLU, Conv2d and MaxPool2d write every element of their forward
// outputs (and ReLU and Conv2d of their input gradients), so those start
// unwritten; the buffers a kernel adds into start at zero. They keep
// activations only from a forward with `train` set: an evaluation
// forward frees them, so a backward after it fails its check.

namespace {
constexpr const char* kNeedsTrainingForward =
    "backward needs the activations of a forward with train set";
// Weights below which Dense's parameter gradients run on the calling
// thread: waking pool workers would cost more than a small layer's pass.
constexpr std::size_t kParallelGradFloor = std::size_t{1} << 15;
}  // namespace

// --- Dense -------------------------------------------------------------------

Dense::Dense(std::size_t in, std::size_t out)
    : Layer(out * in + out), in_(in), out_(out) {
  P2PFL_CHECK(in > 0 && out > 0);
}

void Dense::init(Rng& rng) {
  // He-uniform: suited to the ReLU activations used throughout Fig. 5.
  const float bound = std::sqrt(6.0f / static_cast<float>(in_));
  const std::span<float> p = params();
  for (std::size_t i = 0; i < out_ * in_; ++i) {
    p[i] = static_cast<float>(rng.uniform(-bound, bound));
  }
  for (std::size_t i = out_ * in_; i < p.size(); ++i) p[i] = 0.0f;
}

std::size_t Dense::activation_bytes() const {
  return cached_input_.size() * sizeof(float);
}

void Dense::free_activations() { cached_input_ = Tensor(); }

// The Dense kernels give each output element the direct loop's arithmetic
// (see layers.hpp); the direct loops are their oracle in
// tests/fl_kernel_test.cpp. Their bodies run through widest()
// (kernel_isa.hpp).

Tensor Dense::forward(const Tensor& x, bool train, Rng& /*rng*/) {
  P2PFL_CHECK(x.rank() == 2 && x.dim(1) == in_);
  cached_input_ = train ? x : Tensor();
  const std::size_t batch = x.dim(0);
  Tensor y = Tensor::uninitialized({batch, out_});
  const float* w = params().data();
  const float* b = w + out_ * in_;
  parallel_for_chunked(0, batch, [&](std::size_t lo, std::size_t hi) {
    widest([&]() __attribute__((always_inline)) {
      // The chunk's inputs as xt[i][s]: each output's double chain over
      // the inputs, in order, then runs for every sample at once, samples
      // innermost, so it vectorizes across samples.
      const std::size_t n = hi - lo;
      std::vector<float> xt(in_ * n);
      for (std::size_t s = 0; s < n; ++s) {
        const float* xin = x.data() + (lo + s) * in_;
        for (std::size_t i = 0; i < in_; ++i) xt[i * n + s] = xin[i];
      }
      std::vector<double> acc(n);
      double* a = acc.data();
      float* yout = y.data() + lo * out_;
      for (std::size_t o = 0; o < out_; ++o) {
        const float* wrow = w + o * in_;
        std::fill(acc.begin(), acc.end(), static_cast<double>(b[o]));
        // Inputs in order, four to a pass, as the conv taps.
        std::size_t i = 0;
        for (; i + 4 <= in_; i += 4) {
          const float w0 = wrow[i], w1 = wrow[i + 1], w2 = wrow[i + 2],
                      w3 = wrow[i + 3];
          const float* x0 = xt.data() + i * n;
          const float* x1 = x0 + n;
          const float* x2 = x1 + n;
          const float* x3 = x2 + n;
          for (std::size_t s = 0; s < n; ++s) {
            double v = a[s];
            v += w0 * x0[s];
            v += w1 * x1[s];
            v += w2 * x2[s];
            v += w3 * x3[s];
            a[s] = v;
          }
        }
        for (; i < in_; ++i) {
          const float wv = wrow[i];
          const float* xi = xt.data() + i * n;
          for (std::size_t s = 0; s < n; ++s) a[s] += wv * xi[s];
        }
        for (std::size_t s = 0; s < n; ++s) {
          yout[s * out_ + o] = static_cast<float>(acc[s]);
        }
      }
    });
  });
  return y;
}

Tensor Dense::backward(const Tensor& grad_out, bool input_grad) {
  const Tensor& x = cached_input_;
  P2PFL_CHECK_MSG(x.rank() == 2, kNeedsTrainingForward);
  P2PFL_CHECK(grad_out.rank() == 2 && grad_out.dim(1) == out_);
  P2PFL_CHECK(grad_out.dim(0) == x.dim(0));
  const std::size_t batch = x.dim(0);
  const float* w = params().data();
  const float* gy = grad_out.data();
  float* gw = grads().data();
  float* gb = gw + out_ * in_;

  // Parameter gradients: each element adds its samples' terms in sample
  // order. One output at a time, so its weight-gradient row stays in cache
  // while the samples pass over it; the outputs' rows run in parallel, each
  // on one thread, unless the layer is too small to share.
  const auto param_grads = [&](std::size_t lo, std::size_t hi) {
    widest([&]() __attribute__((always_inline)) {
      for (std::size_t o = lo; o < hi; ++o) {
        float* gwrow = gw + o * in_;
        for (std::size_t s = 0; s < batch; ++s) {
          const float* xin = x.data() + s * in_;
          const float g = gy[s * out_ + o];
          for (std::size_t i = 0; i < in_; ++i) gwrow[i] += g * xin[i];
          gb[o] += g;
        }
      }
    });
  };
  if (out_ * in_ < kParallelGradFloor) {
    param_grads(0, out_);
  } else {
    parallel_for_chunked(0, out_, param_grads);
  }
  if (!input_grad) return {};

  Tensor gx({batch, in_});
  parallel_for_chunked(0, batch, [&](std::size_t lo, std::size_t hi) {
    widest([&]() __attribute__((always_inline)) {
      // Each element adds its outputs' terms in output order; one output
      // at a time, so its weight row stays in cache across the samples.
      for (std::size_t o = 0; o < out_; ++o) {
        const float* wrow = w + o * in_;
        for (std::size_t s = lo; s < hi; ++s) {
          float* gxi = gx.data() + s * in_;
          const float g = gy[s * out_ + o];
          for (std::size_t i = 0; i < in_; ++i) gxi[i] += g * wrow[i];
        }
      }
    });
  });
  return gx;
}

// --- ReLU --------------------------------------------------------------------

// ReLU and MaxPool2d run in parallel over images, as the conv kernels do;
// each output element is computed as in a serial loop.

Tensor ReLU::forward(const Tensor& x, bool train, Rng& /*rng*/) {
  cached_input_ = train ? x : Tensor();
  Tensor y = Tensor::uninitialized(x.shape());
  const std::size_t per = x.empty() ? 0 : x.size() / x.dim(0);
  const float* xd = x.data();
  float* yd = y.data();
  parallel_for_chunked(0, x.dim(0), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo * per; i < hi * per; ++i) {
      yd[i] = xd[i] > 0.0f ? xd[i] : 0.0f;
    }
  });
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out, bool /*input_grad*/) {
  P2PFL_CHECK_MSG(cached_input_.rank() > 0, kNeedsTrainingForward);
  P2PFL_CHECK(grad_out.size() == cached_input_.size());
  Tensor gx = Tensor::uninitialized(grad_out.shape());
  const std::size_t per = gx.empty() ? 0 : gx.size() / gx.dim(0);
  const float* x = cached_input_.data();
  const float* gy = grad_out.data();
  float* g = gx.data();
  parallel_for_chunked(0, gx.dim(0), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo * per; i < hi * per; ++i) {
      g[i] = x[i] <= 0.0f ? 0.0f : gy[i];
    }
  });
  return gx;
}

std::size_t ReLU::activation_bytes() const {
  return cached_input_.size() * sizeof(float);
}

void ReLU::free_activations() { cached_input_ = Tensor(); }

// --- Dropout -----------------------------------------------------------------

Dropout::Dropout(float rate) : rate_(rate) {
  P2PFL_CHECK(rate >= 0.0f && rate < 1.0f);
}

Tensor Dropout::forward(const Tensor& x, bool train, Rng& rng) {
  if (!train || rate_ == 0.0f) {
    mask_.clear();
    return x;
  }
  const float keep = 1.0f - rate_;
  const float scale = 1.0f / keep;
  mask_.resize(x.size());
  Tensor y = x;
  float* v = y.data();
  for (std::size_t i = 0; i < y.size(); ++i) {
    mask_[i] = rng.chance(keep) ? scale : 0.0f;
    v[i] *= mask_[i];
  }
  return y;
}

Tensor Dropout::backward(const Tensor& grad_out, bool /*input_grad*/) {
  if (mask_.empty()) return grad_out;
  P2PFL_CHECK(grad_out.size() == mask_.size());
  Tensor gx = grad_out;
  float* g = gx.data();
  for (std::size_t i = 0; i < gx.size(); ++i) g[i] *= mask_[i];
  return gx;
}

std::size_t Dropout::activation_bytes() const {
  return mask_.capacity() * sizeof(float);
}

void Dropout::free_activations() { std::vector<float>().swap(mask_); }

// --- Conv2d ------------------------------------------------------------------

Conv2d::Conv2d(std::size_t in_channels, std::size_t filters,
               std::size_t kernel)
    : Layer(filters * in_channels * kernel * kernel + filters),
      in_c_(in_channels),
      filters_(filters),
      k_(kernel) {
  P2PFL_CHECK(in_channels > 0 && filters > 0);
  P2PFL_CHECK(kernel % 2 == 1);  // same padding needs an odd kernel
}

void Conv2d::init(Rng& rng) {
  const std::size_t fan_in = in_c_ * k_ * k_;
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in));
  const std::size_t nw = filters_ * in_c_ * k_ * k_;
  const std::span<float> p = params();
  for (std::size_t i = 0; i < nw; ++i) {
    p[i] = static_cast<float>(rng.uniform(-bound, bound));
  }
  for (std::size_t i = nw; i < p.size(); ++i) p[i] = 0.0f;
}

std::size_t Conv2d::activation_bytes() const {
  return cached_input_.size() * sizeof(float);
}

void Conv2d::free_activations() { cached_input_ = Tensor(); }

// The conv kernels vectorize over runs of independent output elements and
// give each element the direct loop's arithmetic (see layers.hpp); the
// direct loops are their oracle in tests/fl_kernel_test.cpp. Where the
// direct loop skips a tap outside the image, the kernels may add a zero
// product instead, which changes at most the sign of an exact zero.

Tensor Conv2d::forward(const Tensor& x, bool train, Rng& /*rng*/) {
  P2PFL_CHECK(x.rank() == 4 && x.dim(1) == in_c_);
  cached_input_ = train ? x : Tensor();
  const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t pad = k_ / 2, ph = h + 2 * pad, pw = w + 2 * pad;
  const std::size_t plane = ph * pw;
  // Output (oy, ox) accumulates at oy * pw + ox: each row carries 2 * pad
  // trailing positions that are computed and dropped, so one tap is one
  // contiguous loop over the whole image.
  const std::size_t span = h * pw;
  Tensor y = Tensor::uninitialized({batch, filters_, h, w});
  const float* wt = params().data();
  const float* bias = wt + filters_ * in_c_ * k_ * k_;
  // Tap (c, ky, kx) reads the padded image at off[(c * k + ky) * k + kx].
  const std::size_t taps = in_c_ * k_ * k_;
  std::vector<std::size_t> off(taps);
  for (std::size_t c = 0; c < in_c_; ++c) {
    for (std::size_t ky = 0; ky < k_; ++ky) {
      for (std::size_t kx = 0; kx < k_; ++kx) {
        off[(c * k_ + ky) * k_ + kx] = c * plane + ky * pw + kx;
      }
    }
  }

  parallel_for_chunked(0, batch, [&](std::size_t lo, std::size_t hi) {
    widest([&]() __attribute__((always_inline)) {
      // Zero-padded image; the tail keeps the dropped positions in bounds.
      std::vector<float> xp(in_c_ * plane + 2 * pad);
      std::vector<double> acc(span);
      for (std::size_t s = lo; s < hi; ++s) {
        const float* xin = x.data() + s * in_c_ * h * w;
        for (std::size_t c = 0; c < in_c_; ++c) {
          for (std::size_t iy = 0; iy < h; ++iy) {
            std::copy_n(xin + (c * h + iy) * w, w,
                        xp.data() + c * plane + (iy + pad) * pw + pad);
          }
        }
        float* yout = y.data() + s * filters_ * h * w;
        for (std::size_t f = 0; f < filters_; ++f) {
          const float* wf = wt + f * taps;
          std::fill(acc.begin(), acc.end(), static_cast<double>(bias[f]));
          // Taps in (c, ky, kx) order, each adding double(w * x) per
          // output, four to a pass so an accumulator is loaded and stored
          // once per four products.
          double* a = acc.data();
          std::size_t t = 0;
          for (; t + 4 <= taps; t += 4) {
            const float w0 = wf[t], w1 = wf[t + 1], w2 = wf[t + 2],
                        w3 = wf[t + 3];
            const float* x0 = xp.data() + off[t];
            const float* x1 = xp.data() + off[t + 1];
            const float* x2 = xp.data() + off[t + 2];
            const float* x3 = xp.data() + off[t + 3];
            for (std::size_t i = 0; i < span; ++i) {
              double v = a[i];
              v += w0 * x0[i];
              v += w1 * x1[i];
              v += w2 * x2[i];
              v += w3 * x3[i];
              a[i] = v;
            }
          }
          for (; t < taps; ++t) {
            const float wv = wf[t];
            const float* xs = xp.data() + off[t];
            for (std::size_t i = 0; i < span; ++i) a[i] += wv * xs[i];
          }
          float* yf = yout + f * h * w;
          for (std::size_t oy = 0; oy < h; ++oy) {
            for (std::size_t ox = 0; ox < w; ++ox) {
              yf[oy * w + ox] = static_cast<float>(acc[oy * pw + ox]);
            }
          }
        }
      }
    });
  });
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out, bool input_grad) {
  const Tensor& x = cached_input_;
  P2PFL_CHECK_MSG(x.rank() == 4, kNeedsTrainingForward);
  const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  P2PFL_CHECK(grad_out.rank() == 4 && grad_out.dim(1) == filters_);
  const std::size_t pad = k_ / 2, pw = w + 2 * pad;
  const std::size_t kk = k_ * k_, fsize = in_c_ * kk;
  const std::size_t cells = (h + 2 * pad) * pw * in_c_;  // a padded image
  const std::size_t row = k_ * in_c_;                     // (kx, c)
  const float* wt = params().data();
  const float* gy = grad_out.data();
  float* gw = grads().data();
  float* gb = gw + filters_ * fsize;
  Tensor gx;
  if (input_grad) gx = Tensor::uninitialized({batch, in_c_, h, w});

  // Channel-last copies: the weights as [f][ky][kx][c] and the zero-padded
  // inputs as [s][iy][ix][c], where input (c, iy, ix) sits at cl(c, iy,
  // ix). One kernel row of a filter, and the input under it, are then
  // `row` contiguous floats.
  std::vector<float> wcl(filters_ * fsize);
  for (std::size_t f = 0; f < filters_; ++f) {
    for (std::size_t c = 0; c < in_c_; ++c) {
      for (std::size_t t = 0; t < kk; ++t) {
        wcl[(f * kk + t) * in_c_ + c] = wt[f * fsize + c * kk + t];
      }
    }
  }
  const auto cl = [&](std::size_t c, std::size_t iy, std::size_t ix) {
    return ((iy + pad) * pw + ix + pad) * in_c_ + c;
  };
  std::vector<float> xcl(batch * cells);

  // Pass 1, parallel over images: the channel-last inputs and, unless the
  // caller reads none, the input gradient. An element gathers its terms
  // in (f, oy, ox) order, as in the direct loop; positions with a zero
  // upstream gradient are skipped.
  parallel_for_chunked(0, batch, [&](std::size_t lo, std::size_t hi) {
    widest([&]() __attribute__((always_inline)) {
      std::vector<float> gcl(input_grad ? cells : 0);
      for (std::size_t s = lo; s < hi; ++s) {
        const float* xin = x.data() + s * in_c_ * h * w;
        float* xs = xcl.data() + s * cells;
        for (std::size_t c = 0; c < in_c_; ++c) {
          for (std::size_t iy = 0; iy < h; ++iy) {
            for (std::size_t ix = 0; ix < w; ++ix) {
              xs[cl(c, iy, ix)] = xin[(c * h + iy) * w + ix];
            }
          }
        }
        if (!input_grad) continue;
        std::fill(gcl.begin(), gcl.end(), 0.0f);
        for (std::size_t f = 0; f < filters_; ++f) {
          const float* gyf = gy + (s * filters_ + f) * h * w;
          for (std::size_t oy = 0; oy < h; ++oy) {
            for (std::size_t ox = 0; ox < w; ++ox) {
              const float g = gyf[oy * w + ox];
              if (g == 0.0f) continue;
              for (std::size_t ky = 0; ky < k_; ++ky) {
                float* dst = gcl.data() + ((oy + ky) * pw + ox) * in_c_;
                const float* src = wcl.data() + (f * k_ + ky) * row;
                for (std::size_t j = 0; j < row; ++j) dst[j] += g * src[j];
              }
            }
          }
        }
        float* gxi = gx.data() + s * in_c_ * h * w;
        for (std::size_t c = 0; c < in_c_; ++c) {
          for (std::size_t iy = 0; iy < h; ++iy) {
            for (std::size_t ix = 0; ix < w; ++ix) {
              gxi[(c * h + iy) * w + ix] = gcl[cl(c, iy, ix)];
            }
          }
        }
      }
    });
  });

  // Pass 2, parallel over filters: the weight and bias gradients. They
  // start from the current grads, kept channel-last while they gather
  // their terms in (s, oy, ox) order, as in the direct loop.
  parallel_for_chunked(0, filters_, [&](std::size_t lo, std::size_t hi) {
    widest([&]() __attribute__((always_inline)) {
      std::vector<float> acc((hi - lo) * fsize);
      for (std::size_t f = lo; f < hi; ++f) {
        for (std::size_t c = 0; c < in_c_; ++c) {
          for (std::size_t t = 0; t < kk; ++t) {
            acc[((f - lo) * kk + t) * in_c_ + c] = gw[f * fsize + c * kk + t];
          }
        }
      }
      for (std::size_t s = 0; s < batch; ++s) {
        const float* xs = xcl.data() + s * cells;
        for (std::size_t f = lo; f < hi; ++f) {
          const float* gyf = gy + (s * filters_ + f) * h * w;
          float* af = acc.data() + (f - lo) * fsize;
          for (std::size_t oy = 0; oy < h; ++oy) {
            for (std::size_t ox = 0; ox < w; ++ox) {
              const float g = gyf[oy * w + ox];
              if (g == 0.0f) continue;
              gb[f] += g;
              for (std::size_t ky = 0; ky < k_; ++ky) {
                float* dst = af + ky * row;
                const float* src = xs + ((oy + ky) * pw + ox) * in_c_;
                for (std::size_t j = 0; j < row; ++j) dst[j] += g * src[j];
              }
            }
          }
        }
      }
      for (std::size_t f = lo; f < hi; ++f) {
        for (std::size_t c = 0; c < in_c_; ++c) {
          for (std::size_t t = 0; t < kk; ++t) {
            gw[f * fsize + c * kk + t] = acc[((f - lo) * kk + t) * in_c_ + c];
          }
        }
      }
    });
  });
  return gx;
}

// --- MaxPool2d ---------------------------------------------------------------

Tensor MaxPool2d::forward(const Tensor& x, bool train, Rng& /*rng*/) {
  P2PFL_CHECK(x.rank() == 4);
  const std::size_t batch = x.dim(0), c = x.dim(1), h = x.dim(2),
                    w = x.dim(3);
  P2PFL_CHECK_MSG(h % 2 == 0 && w % 2 == 0,
                  "MaxPool2d expects even spatial dims");
  const std::size_t oh = h / 2, ow = w / 2;
  Tensor y = Tensor::uninitialized({batch, c, oh, ow});
  if (train) {
    in_shape_ = x.shape();
    argmax_.resize(y.size());  // every element is written below
  } else {
    free_activations();
  }
  parallel_for_chunked(0, batch, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t p = lo * c; p < hi * c; ++p) {
      const float* xc = x.data() + p * h * w;
      float* yc = y.data() + p * oh * ow;
      std::size_t* am = train ? argmax_.data() + p * oh * ow : nullptr;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t dy = 0; dy < 2; ++dy) {
            for (std::size_t dx = 0; dx < 2; ++dx) {
              const std::size_t idx = (oy * 2 + dy) * w + (ox * 2 + dx);
              if (xc[idx] > best) {
                best = xc[idx];
                best_idx = idx;
              }
            }
          }
          yc[oy * ow + ox] = best;
          if (am != nullptr) am[oy * ow + ox] = best_idx;
        }
      }
    }
  });
  return y;
}

Tensor MaxPool2d::backward(const Tensor& grad_out, bool /*input_grad*/) {
  P2PFL_CHECK_MSG(!in_shape_.empty(), kNeedsTrainingForward);
  P2PFL_CHECK(grad_out.size() == argmax_.size());
  Tensor gx(in_shape_);
  const std::size_t c = in_shape_[1], h = in_shape_[2], w = in_shape_[3];
  const std::size_t oh = h / 2, ow = w / 2;
  parallel_for_chunked(0, in_shape_[0], [&](std::size_t lo, std::size_t hi) {
    for (std::size_t p = lo * c; p < hi * c; ++p) {
      const float* gy = grad_out.data() + p * oh * ow;
      const std::size_t* am = argmax_.data() + p * oh * ow;
      float* gxc = gx.data() + p * h * w;
      for (std::size_t i = 0; i < oh * ow; ++i) gxc[am[i]] += gy[i];
    }
  });
  return gx;
}

std::size_t MaxPool2d::activation_bytes() const {
  return argmax_.capacity() * sizeof(std::size_t);
}

void MaxPool2d::free_activations() {
  std::vector<std::size_t>().swap(argmax_);
  in_shape_.clear();
}

// --- Flatten -----------------------------------------------------------------

Tensor Flatten::forward(const Tensor& x, bool /*train*/, Rng& /*rng*/) {
  P2PFL_CHECK(x.rank() >= 2);
  in_shape_ = x.shape();
  return x.reshaped({x.dim(0), x.size() / x.dim(0)});
}

Tensor Flatten::backward(const Tensor& grad_out, bool /*input_grad*/) {
  return grad_out.reshaped(in_shape_);
}

}  // namespace p2pfl::fl
