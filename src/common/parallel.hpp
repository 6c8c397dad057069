// Shared-memory parallel helpers for the numeric kernels.
//
// The discrete-event protocol simulation is single-threaded on purpose
// (determinism), but the FL substrate's tensor kernels (conv2d, matmul)
// are embarrassingly parallel across output elements. parallel_for splits
// an index range into one contiguous chunk per worker and starts a fresh
// std::thread for every chunk but the first, which runs on the caller;
// there is no pool. With one worker it is a plain loop with no threads.
// The fl kernels give every output element one owning thread, so their
// results do not depend on the worker count.
#pragma once

#include <cstddef>
#include <functional>

namespace p2pfl {

/// Number of worker threads parallel_for will use (>= 1).
std::size_t parallel_workers();

/// Override the worker count (0 restores the hardware default).
/// Not thread-safe; call before the first parallel_for.
void set_parallel_workers(std::size_t n);

/// Invoke fn(i) for every i in [begin, end), possibly from several
/// threads. fn must be safe to call concurrently for distinct i and must
/// not throw. Blocks until all iterations complete.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

/// Chunked variant: fn(lo, hi) is invoked on contiguous subranges, which
/// amortizes per-index std::function overhead in tight numeric loops.
void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace p2pfl
