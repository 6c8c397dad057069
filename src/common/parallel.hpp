// Shared-memory parallel helpers for the numeric kernels.
//
// The discrete-event protocol simulation is single-threaded on purpose
// (determinism), but the FL substrate's work is embarrassingly parallel:
// output elements of a tensor kernel (conv2d, matmul), blocks of the
// streamed SAC, peers of a training round. parallel_for splits an index
// range into one contiguous chunk per worker and starts a fresh
// std::thread for every chunk but the first, which runs on the caller;
// there is no pool. With one worker it is a plain loop with no threads.
// A call made from inside a chunk (a conv kernel inside a peer's
// training task) runs inline on that chunk's thread, so nesting never
// multiplies threads. The fl kernels give every output element one owning
// thread, so their results do not depend on the worker count.
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
/// threads. fn must be safe to call concurrently for distinct i. Blocks
/// until every chunk has finished; if fn threw, the first exception
/// thrown is then rethrown on the caller (a chunk stops at its throw, the
/// other chunks run to their end). Called from inside a chunk, it runs
/// every index inline on the calling thread.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

/// Chunked variant: fn(lo, hi) is invoked on contiguous subranges, which
/// amortizes per-index std::function overhead in tight numeric loops.
/// Same threading, exception and nesting rules as parallel_for; a nested
/// call makes one fn(begin, end) call.
void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace p2pfl
