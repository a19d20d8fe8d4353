#include "common/thread_pool.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cudalign {

namespace {
/// Set while a thread runs job iterations: nested parallel_for calls from
/// inside an iteration run inline (the classic nested-fork deadlock: every
/// worker blocked in an outer barrier while the inner job sits behind them —
/// and with a single job slot, publishing a second job mid-flight would
/// corrupt the first).
thread_local bool tl_inside_pool_worker = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = std::thread::hardware_concurrency();
    if (workers == 0) workers = 1;
  }
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  // Serialize shutdown with in-flight parallel_for callers (including a
  // caller unwinding from a job exception): the stop flag must not interleave
  // with a job publication, or workers could exit between the publish and
  // their first claim.
  std::lock_guard caller_lock(caller_mutex_);
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

std::exception_ptr ThreadPool::run_job_slice(const std::function<void(std::size_t)>& fn,
                                             std::size_t count) noexcept {
  const bool was_inside = tl_inside_pool_worker;
  tl_inside_pool_worker = true;
  std::exception_ptr error;
  for (;;) {
    // order: relaxed — the cursor only partitions [0, count); the mutex+cv
    // handshake around the job publishes the iteration data itself.
    const std::size_t i = job_next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) break;
    try {
      fn(i);
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  tl_inside_pool_worker = was_inside;
  return error;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    // Shutdown ordering: drain a published job *before* honoring stop_.
    // Exiting with a job pending would leave workers_active_ above zero
    // forever and deadlock the parallel_for caller in done_cv_.wait — the
    // caller still rethrows any job exception after the barrier, even if the
    // pool is being torn down concurrently.
    if (generation_ != seen) {
      seen = generation_;
      const std::function<void(std::size_t)>* fn = job_fn_;
      const std::size_t count = job_count_;
      lock.unlock();
      std::exception_ptr error = run_job_slice(*fn, count);
      lock.lock();
      if (error && !job_error_) job_error_ = error;
      CUDALIGN_DCHECK(workers_active_ > 0, "barrier underflow");
      if (--workers_active_ == 0) done_cv_.notify_all();
      continue;
    }
    if (stop_) return;
  }
}

void ThreadPool::parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (count == 1 || tl_inside_pool_worker) {
    // Run inline: one iteration needs no second thread, and a nested call
    // must not publish a job while its own is in flight (see above).
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::lock_guard caller_lock(caller_mutex_);
  {
    std::lock_guard lock(mutex_);
    job_fn_ = &fn;
    job_count_ = count;
    // order: relaxed — reset inside the mutex; the unlock publishes it.
    job_next_.store(0, std::memory_order_relaxed);
    job_error_ = nullptr;
    workers_active_ = threads_.size();
    ++generation_;
  }
  cv_.notify_all();

  // The caller participates too, then waits for every worker to leave the
  // job (the job state lives on this stack frame).
  std::exception_ptr local_error = run_job_slice(fn, count);

  std::exception_ptr error;
  {
    std::unique_lock lock(mutex_);
    if (local_error && !job_error_) job_error_ = local_error;
    done_cv_.wait(lock, [&] { return workers_active_ == 0; });
    error = job_error_;
    job_fn_ = nullptr;
    job_count_ = 0;
    job_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::shared() {
  // The caller computes too, so one worker fewer than the hardware threads
  // keeps every core busy without oversubscribing one.
  static ThreadPool pool(std::max(2U, std::thread::hardware_concurrency()) - 1);
  return pool;
}

}  // namespace cudalign
