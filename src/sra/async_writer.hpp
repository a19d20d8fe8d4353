// Asynchronous special-row flush pipeline (ROADMAP "Stage-1 I/O overlap",
// DESIGN.md section of the same name): a dedicated writer thread drains a
// bounded queue of staged row buffers so the executor's strip retirement
// hands a row off and returns to compute immediately, instead of paying the
// CRC'd write (+ fsyncs in durable mode) on the critical path. CUDAlign
// 2.1's lineage overlaps disk flushes with GPU compute for exactly this
// reason (paper §IV-B makes special-row saves the linear-space design's
// recurring cost).
//
// Durability ordering: each row goes to disk whole with its trailer (Stage
// 1's resume state) in one put(), and its durable-ack callback runs on the
// writer thread strictly after that put() has returned — i.e. after the
// CRC'd write completes (and, in durable mode, after the
// write-fsync-rename-fsync protocol). Rows are written in submission
// (= ascending flush-row) order by the single writer, so the rows on disk
// are always a prefix of the submitted ones.
//
// Ownership protocol (phase-based, not lock-based): between construction and
// drain() the writer thread is the sole owner of the SpecialRowsArea and of
// everything the ack callbacks touch (the pipeline's fault injection). The
// submitting thread only copies cells into row buffers and moves them
// through the queue; it must not read area statistics until drain() has
// returned. drain() establishes the happens-before edge back to the caller
// (queue mutex + condition variable), after which single-threaded access
// resumes.
//
// Backpressure: the queue holds at most `queue_capacity` staged rows
// (triple-buffered by default — one in flight, two staged). A submit against
// a full queue blocks until the writer retires a row; that wait is the
// compute-side stall the stats expose. Retired buffers are recycled through
// a free list, so steady state performs no per-row allocation.
//
// Failure: a writer-thread exception (disk full, fault injection) poisons
// the queue — no later row is written past a failed one, preserving the
// prefix property — and drain() rethrows it on the submitting
// thread. Submissions after a failure are silently dropped (the run's result
// is discarded when drain() throws).
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "check/annotations.hpp"
#include "sra/sra.hpp"

namespace cudalign::sra {

/// Writer-pipeline accounting for StageStats / the run report (obs/report).
struct AsyncWriterStats {
  Index rows_acked = 0;            ///< Rows durably written and acknowledged.
  std::size_t queue_peak = 0;      ///< High-water staged rows in the queue.
  double writer_busy_seconds = 0;  ///< Writer-thread time in put() + ack.
};

class AsyncSraWriter {
 public:
  /// One row in flight plus two staged absorbs flush bursts without
  /// unbounding memory: rows are n+1 BusCells each, the same size as the
  /// engine's horizontal bus and special-row buffers.
  static constexpr std::size_t kDefaultQueueCapacity = 3;

  explicit AsyncSraWriter(SpecialRowsArea& area,
                          std::size_t queue_capacity = kDefaultQueueCapacity);
  AsyncSraWriter(const AsyncSraWriter&) = delete;
  AsyncSraWriter& operator=(const AsyncSraWriter&) = delete;
  /// Stops the writer after flushing whatever is queued (acks included), then
  /// joins. Unlike drain(), a captured failure is swallowed — destructors run
  /// during unwinding; call drain() first to observe errors.
  ~AsyncSraWriter();

  /// Copies `cells` into a row buffer (recycled from the free list when
  /// possible) and enqueues it, with `trailer`, for writing, blocking while
  /// the queue is full (backpressure). The copy happens on the calling thread
  /// because the span's storage (the executor's special-row buffer) may be
  /// reused the moment the flush hook returns. `on_durable` — may be empty —
  /// runs on the writer thread after this row's put() has returned.
  void submit(const RowKey& key, std::span<const engine::BusCell> cells,
              std::function<void()> on_durable = {}, std::vector<std::int64_t> trailer = {});

  /// Blocks until every submitted row is durable and acknowledged (or the
  /// writer failed), then rethrows any writer-thread exception. Establishes
  /// the ownership hand-back edge: after drain() returns the caller may
  /// again touch the SpecialRowsArea and the ack callbacks' state.
  void drain();

  [[nodiscard]] AsyncWriterStats stats() const;

 private:
  struct StagedRow {
    RowKey key;
    std::vector<engine::BusCell> cells;
    std::function<void()> on_durable;
    std::vector<std::int64_t> trailer;
  };

  void writer_loop();

  SpecialRowsArea& area_;
  const std::size_t capacity_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< Signals the writer: row queued / stop.
  std::condition_variable space_cv_;  ///< Signals submitters: slot free / poisoned.
  std::condition_variable idle_cv_;   ///< Signals drain(): queue empty + writer idle.
  std::deque<StagedRow> queue_ CUDALIGN_GUARDED_BY(mutex_);
  std::vector<std::vector<engine::BusCell>> free_buffers_ CUDALIGN_GUARDED_BY(mutex_);
  bool stop_ CUDALIGN_GUARDED_BY(mutex_) = false;
  bool writing_ CUDALIGN_GUARDED_BY(mutex_) = false;
  std::exception_ptr failure_ CUDALIGN_GUARDED_BY(mutex_);
  AsyncWriterStats stats_ CUDALIGN_GUARDED_BY(mutex_);

  std::thread writer_;  ///< Last member: starts in the constructor.
};

}  // namespace cudalign::sra
