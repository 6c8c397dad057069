#include "common/parallel.hpp"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace p2pfl {
namespace {

std::size_t g_workers = 0;  // 0 = use hardware_concurrency

// Set while this thread runs a chunk of a parallel_for_chunked call: a
// nested call then runs inline instead of starting threads of its own.
thread_local bool t_in_chunk = false;

std::size_t effective_workers() {
  if (g_workers != 0) return g_workers;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// Marks the current thread as running a chunk for its lifetime.
class ChunkScope {
 public:
  ChunkScope() : outer_(t_in_chunk) { t_in_chunk = true; }
  ~ChunkScope() { t_in_chunk = outer_; }
  ChunkScope(const ChunkScope&) = delete;
  ChunkScope& operator=(const ChunkScope&) = delete;

 private:
  bool outer_;
};

}  // namespace

std::size_t parallel_workers() { return effective_workers(); }

void set_parallel_workers(std::size_t n) { g_workers = n; }

void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  const std::size_t workers = std::min(effective_workers(), total);
  if (workers <= 1 || t_in_chunk) {
    fn(begin, end);
    return;
  }
  // The first exception any chunk throws, rethrown on the caller once
  // every chunk has finished.
  std::mutex error_mu;
  std::exception_ptr error;
  auto run_chunk = [&](std::size_t lo, std::size_t hi) {
    ChunkScope scope;
    try {
      fn(lo, hi);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  // Even static split: kernels here have uniform per-index cost, so work
  // stealing would add complexity without a measurable win.
  const std::size_t chunk = (total + workers - 1) / workers;
  {
    // jthreads join when the scope ends, also when starting one throws.
    std::vector<std::jthread> threads;
    threads.reserve(workers - 1);
    for (std::size_t w = 1; w < workers; ++w) {
      const std::size_t lo = begin + w * chunk;
      if (lo >= end) break;
      const std::size_t hi = std::min(end, lo + chunk);
      threads.emplace_back(run_chunk, lo, hi);
    }
    run_chunk(begin, std::min(end, begin + chunk));
  }
  if (error) std::rethrow_exception(error);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  parallel_for_chunked(begin, end,
                       [&fn](std::size_t lo, std::size_t hi) {
                         for (std::size_t i = lo; i < hi; ++i) fn(i);
                       });
}

}  // namespace p2pfl
