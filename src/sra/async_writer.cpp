#include "sra/async_writer.hpp"

#include <algorithm>
#include <utility>

#include "common/timer.hpp"

namespace cudalign::sra {

AsyncSraWriter::AsyncSraWriter(SpecialRowsArea& area, std::size_t queue_capacity)
    : area_(area), capacity_(std::max<std::size_t>(1, queue_capacity)) {
  writer_ = std::thread([this] { writer_loop(); });
}

AsyncSraWriter::~AsyncSraWriter() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stop_ = true;
    work_cv_.notify_all();
    space_cv_.notify_all();
  }
  if (writer_.joinable()) writer_.join();
}

void AsyncSraWriter::submit(const RowKey& key, std::span<const engine::BusCell> cells,
                            std::function<void()> on_durable,
                            std::vector<std::int64_t> trailer) {
  StagedRow row{key, {}, std::move(on_durable), std::move(trailer)};
  {
    // Backpressure before the copy: waiting holds no extra row buffer, and
    // the copy then reuses the buffer the writer has just retired instead of
    // allocating a new one.
    std::unique_lock<std::mutex> lock(mutex_);
    space_cv_.wait(lock, [&] { return failure_ != nullptr || queue_.size() < capacity_; });
    // Poisoned: drop the row — nothing may be written past a failed one, and
    // drain() will surface the failure to the submitter.
    if (failure_ != nullptr) return;
    if (!free_buffers_.empty()) {
      row.cells = std::move(free_buffers_.back());
      free_buffers_.pop_back();
    }
  }
  // The copy runs outside the lock: it is the bulk of the hand-off cost and
  // must not serialize against the writer's retire path. Only this thread
  // enqueues, so the slot found above is still free afterwards.
  row.cells.assign(cells.begin(), cells.end());
  std::unique_lock<std::mutex> lock(mutex_);
  if (failure_ != nullptr) return;
  queue_.push_back(std::move(row));
  stats_.queue_peak = std::max(stats_.queue_peak, queue_.size());
  work_cv_.notify_one();
}

void AsyncSraWriter::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [&] { return failure_ != nullptr || (queue_.empty() && !writing_); });
  if (failure_ != nullptr) std::rethrow_exception(failure_);
}

AsyncWriterStats AsyncSraWriter::stats() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return stats_;
}

void AsyncSraWriter::writer_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || failure_ != nullptr || !queue_.empty(); });
    if (failure_ != nullptr || queue_.empty()) return;  // Poisoned, or stop + drained.
    StagedRow row = std::move(queue_.front());
    queue_.pop_front();
    writing_ = true;
    lock.unlock();
    std::exception_ptr error;
    Timer busy;
    try {
      area_.put(row.key, row.cells, row.trailer);
      // Durable ack: put() has completed the CRC'd write (+ fsync protocol in
      // durable mode), so the row and its trailer are on disk.
      if (row.on_durable) row.on_durable();
    } catch (...) {
      error = std::current_exception();
    }
    const double busy_seconds = busy.seconds();
    lock.lock();
    writing_ = false;
    stats_.writer_busy_seconds += busy_seconds;
    if (error == nullptr) {
      ++stats_.rows_acked;
      row.cells.clear();
      free_buffers_.push_back(std::move(row.cells));
    } else {
      failure_ = error;
      // Preserve the prefix property: later rows must not land on disk past
      // a failed one. Recycling is pointless now; just drop them.
      queue_.clear();
    }
    space_cv_.notify_all();
    idle_cv_.notify_all();
    if (error != nullptr) return;
  }
}

}  // namespace cudalign::sra
