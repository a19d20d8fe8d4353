// A small fixed-size thread pool with a blocking parallel_for.
//
// This is the CPU stand-in for the CUDA block scheduler and the only owner of
// compute threads: the wavefront scheduler (engine/sched.hpp) runs one job of
// thread_count() participants (the workers and the caller) that pull ready
// tiles until the tile graph is done, and Stages 3-5 run their independent
// partitions as one job each.
//
// parallel_for publishes a single job — a pointer to the caller's function, an
// iteration count and a shared atomic cursor — and bumps a generation counter
// to wake the workers. Every participant (workers and the caller) claims
// iterations from the cursor until it runs dry, so the call allocates nothing
// and queues nothing: there is no per-iteration task object, and load
// balancing falls out of the cursor. Concurrent callers are serialized.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "check/annotations.hpp"

namespace cudalign {

class ThreadPool {
 public:
  /// Creates `workers` threads; 0 selects std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t workers = 0);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  /// Serializes with concurrent parallel_for callers and drains any
  /// published job before stopping the workers — destruction can never
  /// strand a caller at the barrier, even mid-exception.
  ~ThreadPool();

  [[nodiscard]] std::size_t worker_count() const noexcept { return threads_.size(); }
  /// Threads a parallel_for computes on: the workers plus the caller.
  [[nodiscard]] std::size_t thread_count() const noexcept { return threads_.size() + 1; }

  /// Runs fn(i) for i in [0, count) across the workers and the calling
  /// thread, and blocks until all iterations finish. Iterations should not
  /// throw; exceptions are rethrown on the caller thread after the barrier
  /// (first one wins). A single iteration, and a nested call (from inside an
  /// iteration), run inline on the calling thread.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Process-wide shared pool (lazily constructed): hardware threads minus
  /// one workers (at least one), so with the caller it computes on every
  /// hardware thread.
  static ThreadPool& shared();

 private:
  void worker_loop();
  /// Claims iterations of the current job until the cursor runs dry;
  /// returns the first exception thrown by an iteration (if any).
  std::exception_ptr run_job_slice(const std::function<void(std::size_t)>& fn,
                                   std::size_t count) noexcept;

  std::vector<std::thread> threads_;

  std::mutex mutex_;             ///< Guards the job slot and generation.
  std::condition_variable cv_;   ///< Workers wait here for a generation bump.
  std::condition_variable done_cv_;  ///< The caller waits here for the barrier.
  std::mutex caller_mutex_;      ///< Serializes concurrent parallel_for callers.

  // The published job (valid for generation_; lives on the caller's stack).
  std::uint64_t generation_ CUDALIGN_GUARDED_BY(mutex_) = 0;
  const std::function<void(std::size_t)>* job_fn_ CUDALIGN_GUARDED_BY(mutex_) = nullptr;
  std::size_t job_count_ CUDALIGN_GUARDED_BY(mutex_) = 0;
  /// The shared iteration cursor — the one field claimed lock-free mid-job.
  std::atomic<std::size_t> job_next_{0};
  /// Workers still inside the current job.
  std::size_t workers_active_ CUDALIGN_GUARDED_BY(mutex_) = 0;
  std::exception_ptr job_error_ CUDALIGN_GUARDED_BY(mutex_);

  bool stop_ CUDALIGN_GUARDED_BY(mutex_) = false;
};

}  // namespace cudalign
