#include "fl/data.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace p2pfl::fl {

Tensor Dataset::batch(std::span<const std::size_t> indices) const {
  P2PFL_CHECK(!indices.empty());
  const std::size_t d = sample_floats();
  Tensor out =
      Tensor::uninitialized({indices.size(), channels, height, width});
  for (std::size_t b = 0; b < indices.size(); ++b) {
    P2PFL_CHECK(indices[b] < size());
    const float* src = images.data() + indices[b] * d;
    std::copy(src, src + d, out.data() + b * d);
  }
  return out;
}

std::span<const float> Dataset::image(std::size_t i) const {
  P2PFL_CHECK(i < size());
  return {images.data() + i * sample_floats(), sample_floats()};
}

namespace {

Dataset sample_set(const SyntheticSpec& spec,
                   const std::vector<std::vector<float>>& prototypes,
                   std::size_t count, Rng& rng) {
  Dataset ds;
  ds.channels = spec.channels;
  ds.height = spec.height;
  ds.width = spec.width;
  ds.classes = spec.classes;
  const std::size_t d = ds.sample_floats();
  ds.images.resize(count * d);
  ds.labels.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const int label = static_cast<int>(i % spec.classes);
    ds.labels[i] = label;
    const auto& proto = prototypes[static_cast<std::size_t>(label)];
    float* img = ds.images.data() + i * d;
    for (std::size_t p = 0; p < d; ++p) {
      img[p] = proto[p] +
               static_cast<float>(rng.normal(0.0, spec.noise_scale));
    }
  }
  // Interleaved labels are deterministic; shuffle sample order so peers
  // slicing contiguous ranges still see mixed classes under IID.
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) order[i] = i;
  rng.shuffle(order);
  Dataset shuffled = ds;
  for (std::size_t i = 0; i < count; ++i) {
    shuffled.labels[i] = ds.labels[order[i]];
    std::copy(ds.images.begin() + static_cast<std::ptrdiff_t>(order[i] * d),
              ds.images.begin() + static_cast<std::ptrdiff_t>((order[i] + 1) * d),
              shuffled.images.begin() + static_cast<std::ptrdiff_t>(i * d));
  }
  return shuffled;
}

}  // namespace

TrainTest make_synthetic(const SyntheticSpec& spec, Rng& rng) {
  P2PFL_CHECK(spec.classes >= 2);
  P2PFL_CHECK(spec.train_samples >= spec.classes);
  const std::size_t d = spec.channels * spec.height * spec.width;
  std::vector<std::vector<float>> prototypes(spec.classes,
                                             std::vector<float>(d));
  for (auto& proto : prototypes) {
    for (float& v : proto) v = static_cast<float>(rng.normal(0.0, 1.0));
  }
  TrainTest tt;
  tt.train = sample_set(spec, prototypes, spec.train_samples, rng);
  tt.test = sample_set(spec, prototypes, spec.test_samples, rng);
  return tt;
}

SyntheticSpec mnist_like() {
  SyntheticSpec s;
  s.channels = 1;
  s.height = 28;
  s.width = 28;
  s.noise_scale = 1.5;
  return s;
}

SyntheticSpec cifar10_like() {
  SyntheticSpec s;
  s.channels = 3;
  s.height = 32;
  s.width = 32;
  s.noise_scale = 3.0;  // harder task, mirroring CIFAR-10 vs MNIST
  return s;
}

PeerIndices partition_iid(const Dataset& data, std::size_t peers, Rng& rng) {
  P2PFL_CHECK(peers >= 1 && data.size() >= peers);
  std::vector<std::size_t> order(data.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);
  PeerIndices out(peers);
  for (std::size_t i = 0; i < order.size(); ++i) {
    out[i % peers].push_back(order[i]);
  }
  return out;
}

PeerIndices partition_non_iid(const Dataset& data, std::size_t peers,
                              double off_fraction, Rng& rng,
                              std::size_t main_classes) {
  P2PFL_CHECK(peers >= 1 && data.size() >= peers);
  P2PFL_CHECK(off_fraction >= 0.0 && off_fraction <= 1.0);
  P2PFL_CHECK(main_classes >= 1 && main_classes < data.classes);

  // Index pool per class, individually shuffled; peers draw cyclically so
  // a class demanded by many peers is shared rather than exhausted.
  std::vector<std::vector<std::size_t>> by_class(data.classes);
  for (std::size_t i = 0; i < data.size(); ++i) {
    by_class[static_cast<std::size_t>(data.labels[i])].push_back(i);
  }
  for (auto& pool : by_class) {
    P2PFL_CHECK_MSG(!pool.empty(), "a class has no samples");
    rng.shuffle(pool);
  }
  std::vector<std::size_t> cursor(data.classes, 0);
  auto draw = [&](std::size_t cls) {
    const auto& pool = by_class[cls];
    const std::size_t idx = pool[cursor[cls] % pool.size()];
    ++cursor[cls];
    return idx;
  };

  const std::size_t quota = data.size() / peers;
  PeerIndices out(peers);
  std::vector<std::size_t> all_classes(data.classes);
  for (std::size_t c = 0; c < data.classes; ++c) all_classes[c] = c;

  for (std::size_t p = 0; p < peers; ++p) {
    std::vector<std::size_t> classes = all_classes;
    rng.shuffle(classes);
    classes.resize(main_classes);  // this peer's main classes
    const std::size_t off =
        static_cast<std::size_t>(off_fraction * static_cast<double>(quota));
    const std::size_t main = quota - off;
    for (std::size_t i = 0; i < main; ++i) {
      out[p].push_back(draw(classes[i % main_classes]));
    }
    for (std::size_t i = 0; i < off; ++i) {
      // Uniform over the classes outside the main set.
      std::size_t cls;
      do {
        cls = rng.index(data.classes);
      } while (std::find(classes.begin(), classes.end(), cls) !=
               classes.end());
      out[p].push_back(draw(cls));
    }
    rng.shuffle(out[p]);
  }
  return out;
}

}  // namespace p2pfl::fl
