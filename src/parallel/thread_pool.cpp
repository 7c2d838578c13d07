#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <cstring>
#include <new>

#include "core/failpoint.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace parallel {

unsigned hardware_threads() noexcept {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
    const int pinned = CPU_COUNT(&mask);
    if (pinned > 0) return static_cast<unsigned>(pinned);
  }
#endif
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

unsigned resolve_threads(int requested) noexcept {
  if (requested <= 0) return hardware_threads();
  return static_cast<unsigned>(requested);
}

void set_current_thread_name(const char* name) noexcept {
#if defined(__linux__)
  char truncated[16];
  std::strncpy(truncated, name, sizeof truncated - 1);
  truncated[sizeof truncated - 1] = '\0';
  pthread_setname_np(pthread_self(), truncated);
#else
  (void)name;
#endif
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::~ThreadPool() {
  // Swap the worker set out under the lock, then join outside it: the
  // workers need mu_ to observe shutdown_ and exit.
  std::vector<std::thread> workers;
  {
    const core::MutexLock lock(mu_);
    shutdown_ = true;
    workers.swap(workers_);
  }
  work_cv_.notify_all();
  for (auto& w : workers) w.join();
}

void ThreadPool::ensure_workers_locked(unsigned n) {
  // Worker counts are bounded: a request for more executors than cores
  // still works (the OS time-slices), but an absurd --threads value must
  // not spawn thousands of threads.
  n = std::min(n, 256u);
  while (workers_.size() < n)
    workers_.emplace_back([this] {
      set_current_thread_name("bmit-pool");
      worker_loop();
    });
}

void ThreadPool::run(std::size_t tasks, unsigned threads,
                     const std::function<void(std::size_t)>& fn) {
  if (tasks == 0) return;
  if (threads <= 1 || tasks == 1) {
    for (std::size_t i = 0; i < tasks; ++i) fn(i);
    return;
  }
  const core::MutexLock job_lock(job_mu_);
  {
    const core::MutexLock lock(mu_);
    ensure_workers_locked(threads - 1);
    job_ = &fn;
    job_tasks_ = tasks;
    next_task_ = 0;
    unfinished_ = tasks;
    error_ = nullptr;
    ++generation_;
  }
  work_cv_.notify_all();
  work_on_job();
  core::MutexLock lock(mu_);
  while (unfinished_ != 0) done_cv_.wait(lock);
  job_ = nullptr;
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void ThreadPool::work_on_job() {
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t i = 0;
    {
      const core::MutexLock lock(mu_);
      if (job_ == nullptr || next_task_ >= job_tasks_) return;
      fn = job_;
      i = next_task_++;
    }
    try {
      // "parallel.job" simulates a task dying mid-job (an allocation
      // failure inside user work); it exercises the same capture-and-
      // rethrow path as a real throw from fn.
      if (BDRMAPIT_FAILPOINT("parallel.job")) throw std::bad_alloc();
      (*fn)(i);
    } catch (...) {
      const core::MutexLock lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
    const core::MutexLock lock(mu_);
    if (--unfinished_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      core::MutexLock lock(mu_);
      // Explicit predicate loop: the capability analysis cannot see
      // into a wait(pred) lambda, so the guarded reads live here.
      while (!shutdown_ && !(generation_ != seen && job_ != nullptr &&
                             next_task_ < job_tasks_))
        work_cv_.wait(lock);
      if (shutdown_) return;
      seen = generation_;
    }
    work_on_job();
  }
}

}  // namespace parallel
