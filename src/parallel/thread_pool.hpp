// parallel/thread_pool.hpp — the parallel-execution substrate.
//
// One process-wide pool of persistent worker threads drives every
// parallel phase of the pipeline (ingest, the refinement sweeps, the
// audit scans). Callers never talk to the pool directly; they use
// the range helpers below, which split an index range into contiguous
// shards — one per executor — and block until every shard finishes.
//
// Determinism contract: shard *boundaries* depend on the thread count,
// so any algorithm built on these helpers must merge shard results in
// shard order and be insensitive to where the cuts fall (per-shard
// parses concatenated in shard order reproduce the serial parse
// exactly; see tracedata/line_shards.hpp). `threads <= 1` runs inline
// on the calling thread without touching the pool, so the serial path
// stays free of any synchronization.
//
// Exceptions thrown inside a shard are captured and rethrown on the
// calling thread after the job drains.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <thread>
#include <utility>
#include <vector>

#include "core/thread_annotations.hpp"

namespace parallel {

/// CPUs this process may run on: the size of its CPU affinity mask
/// where the platform reports one (so a run under `taskset -c 0` sizes
/// itself to 1), else std::thread::hardware_concurrency(). Never less
/// than 1.
unsigned hardware_threads() noexcept;

/// Maps a user-facing thread-count knob to an executor count:
/// `requested <= 0` means "auto" (hardware_threads()); anything else is
/// used as given. The result is never less than 1. Shared by every
/// `--threads` knob in the tree (pipeline shards, audit scans, and the
/// net::Server event loops) so one convention sizes them all.
unsigned resolve_threads(int requested) noexcept;

/// Best-effort name for the calling thread (truncated to the kernel's
/// 15-char limit), so pool workers and net loops are tellable apart in
/// debuggers, /proc, and profiler output. Never fails visibly.
void set_current_thread_name(const char* name) noexcept;

/// A reusable pool of worker threads. Jobs are arrays of task indices
/// claimed under a mutex; the submitting thread participates as one of
/// the executors, so a pool serving `t`-way jobs keeps `t - 1` workers.
class ThreadPool {
 public:
  /// The process-wide pool used by the range helpers. Grows its worker
  /// set on demand, never shrinks until exit.
  static ThreadPool& shared();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Runs fn(i) for every i in [0, tasks), with up to `threads`
  /// concurrent executors including the caller. Blocks until all tasks
  /// complete; rethrows the first exception any task raised.
  /// Concurrent run() calls from different threads serialize.
  void run(std::size_t tasks, unsigned threads,
           const std::function<void(std::size_t)>& fn)
      BDRMAPIT_EXCLUDES(job_mu_, mu_);

 private:
  ThreadPool() = default;

  void ensure_workers_locked(unsigned n) BDRMAPIT_REQUIRES(mu_);
  void worker_loop() BDRMAPIT_EXCLUDES(mu_);
  void work_on_job() BDRMAPIT_EXCLUDES(mu_);

  core::Mutex job_mu_;  ///< serializes whole jobs from concurrent callers

  core::Mutex mu_;  ///< guards every BDRMAPIT_GUARDED_BY(mu_) member
  core::CondVar work_cv_;
  core::CondVar done_cv_;
  std::vector<std::thread> workers_ BDRMAPIT_GUARDED_BY(mu_);
  std::uint64_t generation_ BDRMAPIT_GUARDED_BY(mu_) = 0;
  const std::function<void(std::size_t)>* job_ BDRMAPIT_GUARDED_BY(mu_) =
      nullptr;
  std::size_t job_tasks_ BDRMAPIT_GUARDED_BY(mu_) = 0;
  std::size_t next_task_ BDRMAPIT_GUARDED_BY(mu_) = 0;
  std::size_t unfinished_ BDRMAPIT_GUARDED_BY(mu_) = 0;
  std::exception_ptr error_ BDRMAPIT_GUARDED_BY(mu_);
  bool shutdown_ BDRMAPIT_GUARDED_BY(mu_) = false;
};

/// Number of shards parallel_shards/parallel_reduce will use for a
/// range of `n` elements: resolve_threads(threads), but never more
/// than the element count and never 0.
inline std::size_t shard_count(std::size_t n, int threads) noexcept {
  return std::min<std::size_t>(resolve_threads(threads), n == 0 ? 1 : n);
}

/// Splits [0, n) into shard_count(n, threads) contiguous shards and
/// runs fn(shard, begin, end) for each. Shards are dense: shard s
/// covers [n*s/shards, n*(s+1)/shards). With one shard (or n == 0) fn
/// runs inline on the calling thread.
template <typename Fn>
void parallel_shards(std::size_t n, int threads, Fn&& fn) {
  const std::size_t shards = shard_count(n, threads);
  if (shards <= 1) {
    fn(std::size_t{0}, std::size_t{0}, n);
    return;
  }
  const std::function<void(std::size_t)> task = [&](std::size_t s) {
    fn(s, n * s / shards, n * (s + 1) / shards);
  };
  ThreadPool::shared().run(shards, static_cast<unsigned>(shards), task);
}

/// Element-wise parallel loop: fn(i) for i in [0, n).
template <typename Fn>
void parallel_for(std::size_t n, int threads, Fn&& fn) {
  parallel_shards(n, threads,
                  [&fn](std::size_t, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) fn(i);
                  });
}

/// Shard-local accumulation merged in shard order (deterministic for
/// order-sensitive merges). `fn(acc, i)` folds element i into a
/// default-constructed shard accumulator; `merge(total, acc)` folds the
/// shard accumulators, in shard order, into `init`.
template <typename T, typename Fn, typename Merge>
T parallel_reduce(std::size_t n, int threads, T init, Fn&& fn, Merge&& merge) {
  const std::size_t shards = shard_count(n, threads);
  std::vector<T> partial(shards);
  parallel_shards(n, static_cast<int>(shards),
                  [&](std::size_t s, std::size_t begin, std::size_t end) {
                    for (std::size_t i = begin; i < end; ++i) fn(partial[s], i);
                  });
  for (T& p : partial) merge(init, p);
  return init;
}

/// Per-element result collection with positional merge order: `fn(out,
/// i)` appends zero or more results for element i to its shard's
/// buffer; the buffers are concatenated in shard order. Because every
/// shard covers a contiguous index range and appends in index order,
/// the merged vector is in element-index order for *every* thread
/// count — the shape the invariant auditor relies on for byte-identical
/// violation reports.
template <typename T, typename Fn>
std::vector<T> parallel_collect(std::size_t n, int threads, Fn&& fn) {
  return parallel_reduce(
      n, threads, std::vector<T>{},
      [&fn](std::vector<T>& acc, std::size_t i) { fn(acc, i); },
      [](std::vector<T>& total, std::vector<T>& s) {
        total.insert(total.end(), std::make_move_iterator(s.begin()),
                     std::make_move_iterator(s.end()));
      });
}

}  // namespace parallel
