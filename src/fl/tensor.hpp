// Dense row-major float tensor for the hand-rolled FL substrate.
//
// The paper trains with PyTorch; reproducing the experiments only needs
// forward/backward for the handful of layer types in the Fig. 5 CNN, so
// this is deliberately a minimal container — layers implement their own
// kernels against raw spans. First dimension is always the batch.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <numeric>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace p2pfl::fl {

/// std::allocator whose resize(n) leaves the new elements unwritten; every
/// other construction (copies, fills) is std::allocator's.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  DefaultInitAllocator() = default;
  template <class U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}
  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
};

class Tensor {
 public:
  Tensor() = default;

  /// Zero-filled.
  explicit Tensor(std::vector<std::size_t> shape)
      : shape_(std::move(shape)), data_(count_of(shape_), 0.0f) {}

  Tensor(std::vector<std::size_t> shape, const std::vector<float>& data)
      : shape_(std::move(shape)), data_(data.begin(), data.end()) {
    P2PFL_CHECK(data_.size() == count_of(shape_));
  }

  /// Elements left unwritten, for a kernel that writes every one of them.
  static Tensor uninitialized(std::vector<std::size_t> shape) {
    Tensor t;
    t.data_.resize(count_of(shape));
    t.shape_ = std::move(shape);
    return t;
  }

  const std::vector<std::size_t>& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t dim(std::size_t i) const {
    P2PFL_CHECK(i < shape_.size());
    return shape_[i];
  }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> flat() { return data_; }
  std::span<const float> flat() const { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// Reinterpret with a new shape of identical element count.
  Tensor reshaped(std::vector<std::size_t> shape) const {
    P2PFL_CHECK(count_of(shape) == size());
    Tensor t;
    t.shape_ = std::move(shape);
    t.data_ = data_;
    return t;
  }

  void fill(float v) { std::fill(data_.begin(), data_.end(), v); }

  static std::size_t count_of(const std::vector<std::size_t>& shape) {
    return std::accumulate(shape.begin(), shape.end(), std::size_t{1},
                           std::multiplies<>());
  }

 private:
  std::vector<std::size_t> shape_;
  std::vector<float, DefaultInitAllocator<float>> data_;
};

}  // namespace p2pfl::fl
