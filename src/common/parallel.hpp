// Shared-memory parallel helpers for the numeric kernels.
//
// The discrete-event protocol simulation is single-threaded on purpose
// (determinism), but the FL substrate's work is embarrassingly parallel:
// output elements of a tensor kernel (conv2d, matmul), blocks of the
// streamed SAC, peers of a training round. The calls share one pool of
// parallel_workers() - 1 threads, started by the first call that has work
// to share, blocked while idle and joined at exit. With one worker a call
// is a plain loop and no thread starts.
//
// A call made outside any chunk (top-level) splits its range into one
// contiguous chunk per worker, or into single indices when the range is
// at most 4 x workers (the peers of a round), and wakes idle workers to
// claim them. A call made inside a chunk (nested: a conv kernel inside a
// peer's training task) runs inline as one fn(begin, end) call unless
// some worker is idle; with k idle it splits into up to k + 1 chunks and
// shares them. Either way the caller runs chunks of its own call until
// none is left, then waits for the chunks workers claimed, and never
// starts a chunk of another call while it waits. The fl kernels give
// every output element one owning thread, so their results do not depend
// on the worker count or on who ran which chunk.
#pragma once

#include <cstddef>
#include <functional>

namespace p2pfl {

/// Number of worker threads parallel_for will use (>= 1).
std::size_t parallel_workers();

/// Override the worker count (0 restores the hardware default) and
/// resize the pool to match. Call it between calls, not during one.
void set_parallel_workers(std::size_t n);

/// Invoke fn(i) for every i in [begin, end), possibly from several
/// threads. fn must be safe to call concurrently for distinct i. Blocks
/// until every chunk has finished; if fn threw, the first exception
/// thrown is then rethrown on the caller (a chunk stops at its throw, the
/// other chunks run to their end). Concurrent top-level calls from
/// several threads are safe.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

/// Chunked variant: fn(lo, hi) is invoked on contiguous subranges, which
/// amortizes per-index std::function overhead in tight numeric loops.
/// Same threading, exception and nesting rules as parallel_for; a nested
/// call with no idle worker makes one fn(begin, end) call.
void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace p2pfl
