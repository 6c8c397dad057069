#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace p2pfl {
namespace {

std::atomic<std::size_t> g_workers{0};  // 0 = use hardware_concurrency

// Set while this thread runs a chunk of a parallel_for_chunked call (pool
// threads run nothing else): a call made then is nested.
thread_local bool t_in_chunk = false;

std::size_t effective_workers() {
  const std::size_t n = g_workers.load(std::memory_order_relaxed);
  if (n != 0) return n;
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

using ChunkFn = std::function<void(std::size_t, std::size_t)>;

// One parallel_for_chunked call whose chunks workers may run. It lives on
// its caller's stack. A worker reaches it only through a chunk it claimed
// under the pool's lock, and the caller returns only after every chunk a
// worker claimed has finished, so no worker touches it after that.
struct Job {
  Job(const ChunkFn& f, std::size_t b, std::size_t e, bool n)
      : fn(f), begin(b), end(e), nested(n) {}

  const ChunkFn& fn;
  std::size_t begin, end;
  bool nested;
  std::size_t chunks = 0;  // chunk c is [bound(c), bound(c + 1))
  // Guarded by the pool's lock:
  std::size_t next = 0;      // the first chunk no thread has claimed
  std::size_t borrowed = 0;  // chunks workers claimed and still run
  std::exception_ptr error;  // the first exception a chunk threw
  std::condition_variable returned;  // borrowed fell to 0

  // Contiguous chunks whose sizes differ by at most one, the longer first.
  std::size_t bound(std::size_t c) const {
    const std::size_t total = end - begin;
    return begin + c * (total / chunks) + std::min(c, total % chunks);
  }

  // Runs chunk c as a chunk, returning what it threw.
  std::exception_ptr run(std::size_t c) const {
    const ChunkScope scope;
    try {
      fn(bound(c), bound(c + 1));
    } catch (...) {
      return std::current_exception();
    }
    return nullptr;
  }
};

// parallel_workers() - 1 threads that sleep until a call shares chunks
// with them. A call's caller runs chunks of its own call until none is
// left unclaimed, then waits for the chunks workers claimed; it never
// starts a chunk of another call, so no thread holds two outer tasks.
class Pool {
 public:
  Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool() { stop(); }

  /// A peek at whether any worker waits for work, without the lock.
  bool any_idle() const {
    return idle_count_.load(std::memory_order_relaxed) != 0;
  }

  /// Runs `job` on the caller and on workers. A top-level call first
  /// grows the pool to `threads`, then splits into one chunk per worker,
  /// or one per index when the range is at most 4 x workers (the peers of
  /// a round, claimed one at a time as threads come free). A nested call
  /// splits into one chunk more than there are idle workers; with none
  /// idle it returns false and runs nothing.
  bool run(Job& job, std::size_t threads) {
    const std::size_t total = job.end - job.begin;
    std::unique_lock<std::mutex> lock(mu_);
    if (job.nested) {
      if (idle_.empty()) return false;
      job.chunks = std::min(total, idle_.size() + 1);
    } else {
      grow(threads);
      job.chunks = total <= 4 * (threads + 1) ? total : threads + 1;
    }
    jobs_.push_back(&job);
    for (std::size_t w = std::min(job.chunks - 1, idle_.size()); w > 0; --w) {
      Worker* idle = idle_.back();
      idle_.pop_back();
      idle->woken = true;
      idle->wake.notify_one();
    }
    idle_count_.store(idle_.size(), std::memory_order_relaxed);

    while (job.next < job.chunks) {
      const std::size_t c = claim(job);
      lock.unlock();
      const std::exception_ptr error = job.run(c);
      lock.lock();
      if (error && !job.error) job.error = error;
    }
    job.returned.wait(lock, [&] { return job.borrowed == 0; });
    return true;
  }

  /// Joins every thread; the next top-level call starts them again.
  void stop() {
    std::vector<std::unique_ptr<Worker>> workers;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
      for (Worker* w : idle_) {
        w->woken = true;
        w->wake.notify_one();
      }
      idle_.clear();
      idle_count_.store(0, std::memory_order_relaxed);
      workers.swap(workers_);
    }
    for (auto& w : workers) w->thread.join();
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = false;
  }

  std::size_t threads() {
    const std::lock_guard<std::mutex> lock(mu_);
    return workers_.size();
  }

 private:
  struct Worker {
    std::condition_variable wake;
    bool woken = false;  // guarded by the pool's lock
    std::thread thread;  // last: it uses the members above
  };

  // Under the lock: starts workers up to `threads`, unless stopping.
  void grow(std::size_t threads) {
    if (stop_ || workers_.size() >= threads) return;
    workers_.reserve(threads);
    while (workers_.size() < threads) {
      auto w = std::make_unique<Worker>();
      w->thread = std::thread([this, self = w.get()] { work(*self); });
      workers_.push_back(std::move(w));
    }
  }

  // Under the lock: hands out the job's next chunk, and takes the job off
  // the queue once every chunk is claimed.
  std::size_t claim(Job& job) {
    const std::size_t c = job.next++;
    if (job.next == job.chunks) {
      jobs_.erase(std::find(jobs_.begin(), jobs_.end(), &job));
    }
    return c;
  }

  void work(Worker& self) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (!jobs_.empty()) {
        Job& job = *jobs_.front();
        const std::size_t c = claim(job);
        ++job.borrowed;
        lock.unlock();
        const std::exception_ptr error = job.run(c);
        lock.lock();
        if (error && !job.error) job.error = error;
        // Notified under the lock: the caller cannot return before it is
        // released, and this worker does not touch the job after that.
        if (--job.borrowed == 0) job.returned.notify_one();
        continue;
      }
      if (stop_) return;
      self.woken = false;
      idle_.push_back(&self);
      idle_count_.store(idle_.size(), std::memory_order_relaxed);
      // Whoever sets `woken` takes this worker off idle_.
      self.wake.wait(lock, [&] { return self.woken; });
    }
  }

  std::mutex mu_;
  std::vector<Job*> jobs_;     // calls with unclaimed chunks, oldest first
  std::vector<Worker*> idle_;  // workers waiting for a job
  std::atomic<std::size_t> idle_count_{0};  // idle_.size()
  bool stop_ = false;
  std::vector<std::unique_ptr<Worker>> workers_;
};

Pool g_pool;

}  // namespace

std::size_t parallel_workers() { return effective_workers(); }

void set_parallel_workers(std::size_t n) {
  g_workers.store(n, std::memory_order_relaxed);
  if (g_pool.threads() > effective_workers() - 1) g_pool.stop();
}

void parallel_for_chunked(std::size_t begin, std::size_t end,
                          const ChunkFn& fn) {
  if (begin >= end) return;
  const std::size_t workers = effective_workers();
  const bool nested = t_in_chunk;
  if (workers <= 1 || end - begin <= 1 || (nested && !g_pool.any_idle())) {
    fn(begin, end);
    return;
  }
  Job job(fn, begin, end, nested);
  if (!g_pool.run(job, workers - 1)) {
    fn(begin, end);
    return;
  }
  if (job.error) std::rethrow_exception(job.error);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
  parallel_for_chunked(begin, end,
                       [&fn](std::size_t lo, std::size_t hi) {
                         for (std::size_t i = lo; i < hi; ++i) fn(i);
                       });
}

}  // namespace p2pfl
