// Datasets and federated partitioning.
//
// The paper evaluates on MNIST and CIFAR-10 downloads; this repo has no
// network access, so mnist_like()/cifar10_like() generate synthetic
// image-classification sets of identical shape (28x28x1 / 32x32x3, 10
// classes): each class is a Gaussian prototype image, samples are
// prototype + noise, and `noise_scale` controls how hard the task is.
// What the experiments actually sweep — IID vs Non-IID partitioning
// across peers (§VI-A1) — is reproduced exactly: Non-IID(x%) gives each
// peer two randomly chosen main classes providing (100−x)% of its
// samples, the remaining x% drawn from the other eight classes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "fl/tensor.hpp"

namespace p2pfl::fl {

struct Dataset {
  std::size_t channels = 1;
  std::size_t height = 0;
  std::size_t width = 0;
  std::size_t classes = 10;
  std::vector<float> images;  // sample-major, C*H*W floats each
  std::vector<int> labels;

  std::size_t size() const { return labels.size(); }
  std::size_t sample_floats() const { return channels * height * width; }

  /// Gather samples at `indices` into a (B, C, H, W) batch tensor.
  Tensor batch(std::span<const std::size_t> indices) const;
  std::span<const float> image(std::size_t i) const;
};

struct SyntheticSpec {
  std::size_t channels = 1;
  std::size_t height = 28;
  std::size_t width = 28;
  std::size_t classes = 10;
  std::size_t train_samples = 6000;
  std::size_t test_samples = 1000;
  /// Per-pixel noise stddev relative to unit prototype energy; larger is
  /// harder (cifar10_like uses more noise than mnist_like, mirroring the
  /// accuracy gap between the two datasets in the paper).
  double noise_scale = 1.0;
};

struct TrainTest {
  Dataset train;
  Dataset test;
};

/// Deterministic synthetic dataset from `rng`.
TrainTest make_synthetic(const SyntheticSpec& spec, Rng& rng);

/// Shape- and difficulty-presets standing in for the paper's datasets.
SyntheticSpec mnist_like();
SyntheticSpec cifar10_like();

/// Split sample indices across peers.
using PeerIndices = std::vector<std::vector<std::size_t>>;

/// IID: shuffle and deal evenly.
PeerIndices partition_iid(const Dataset& data, std::size_t peers, Rng& rng);

/// Non-IID(off_fraction): each peer draws (1-off_fraction) of its quota
/// from `main_classes` randomly chosen classes and the rest uniformly
/// from the remaining classes. off_fraction = 0.05 reproduces the
/// paper's Non-IID(5%), 0.0 its Non-IID(0%).
PeerIndices partition_non_iid(const Dataset& data, std::size_t peers,
                              double off_fraction, Rng& rng,
                              std::size_t main_classes = 2);

}  // namespace p2pfl::fl
