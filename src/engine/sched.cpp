#include "engine/sched.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <iterator>
#include <mutex>
#include <vector>

#include "check/annotations.hpp"
#include "check/contracts.hpp"

namespace cudalign::engine::sched {

namespace {

constexpr std::int64_t kNoTile = -1;

/// A ready tile, s * blocks + b, and the participant that made it ready.
struct ReadyTile {
  std::int64_t tile = kNoTile;
  std::size_t maker = 0;
};

class GraphRun {
 public:
  GraphRun(const SchedOptions& opt, const std::function<void(Index, Index)>& body,
           const std::function<bool(Index)>& strip_done)
      : opt_(opt),
        body_(body),
        strip_done_(strip_done),
        ready_{ReadyTile{0, 0}},
        progress_(static_cast<std::size_t>(opt.strips), 0) {}

  /// One participant: runs ready tiles until every strip has retired or the
  /// run stops. The first exception stops every participant and is kept for
  /// the caller.
  void participate(std::size_t me) {
    try {
      work(me);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!error_) error_ = std::current_exception();
      stop_ = true;
      cv_.notify_all();
    }
  }

  SchedStats finish() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (error_) std::rethrow_exception(error_);
    return stats_;
  }

 private:
  void work(std::size_t me) {
    std::unique_lock<std::mutex> lock(mutex_);
    std::int64_t tile = kNoTile;  // Held down successor, run without queueing.
    Index column = -1;            // Column chunk of the last tile run.
    for (;;) {
      while (tile == kNoTile && !stop_ && watermark_ < opt_.strips && ready_.empty()) {
        ++stats_.starvation_waits;
        cv_.wait(lock);
      }
      if (stop_ || watermark_ == opt_.strips) return;
      if (tile == kNoTile) tile = pop(me, column);
      column = tile % opt_.blocks;
      lock.unlock();
      body_(tile / opt_.blocks, tile % opt_.blocks);
      lock.lock();
      tile = complete(tile, me);
      // watermark_ <= the strip just completed, so the index is in range.
      if (!retiring_ && progress_[static_cast<std::size_t>(watermark_)] == opt_.blocks) {
        // Retiring may take a while (special-row hand-off): let another
        // participant take the held tile meanwhile.
        if (tile != kNoTile) push(tile, me);
        tile = kNoTile;
        retire(lock, me);
      }
    }
  }

  /// Takes a ready tile, preferring one in `column`: the striped kernels keep
  /// a thread's column profile while its consecutive tiles share a chunk
  /// (scoring::StripedProfile; bench/micro_kernels' cold rows time a
  /// rebuild), and the held down successor's horizontal-bus segment is
  /// still in cache. Next comes the newest tile `me` made ready, then the
  /// oldest.
  std::int64_t pop(std::size_t me, Index column) CUDALIGN_REQUIRES(mutex_) {
    auto it = std::find_if(ready_.begin(), ready_.end(),
                           [&](const ReadyTile& r) { return r.tile % opt_.blocks == column; });
    if (it == ready_.end()) {
      const auto own = std::find_if(ready_.rbegin(), ready_.rend(),
                                    [me](const ReadyTile& r) { return r.maker == me; });
      it = own == ready_.rend() ? ready_.begin() : std::prev(own.base());
    }
    if (it->maker != me) ++stats_.tiles_stolen;
    const std::int64_t tile = it->tile;
    ready_.erase(it);
    return tile;
  }

  /// Records `tile` as completed: queues its right successor if that became
  /// ready, and returns its down successor if that became ready and the
  /// window lets its strip in (parking the strip otherwise). Within a strip
  /// tiles complete left to right, so one completed-tile count per strip is
  /// the whole dependency state: (s, b) has run iff progress_[s] > b.
  std::int64_t complete(std::int64_t tile, std::size_t me) CUDALIGN_REQUIRES(mutex_) {
    const Index s = tile / opt_.blocks;
    const Index b = tile % opt_.blocks;
    ++stats_.tiles_executed;
    ++progress_[static_cast<std::size_t>(s)];
    if (b + 1 < opt_.blocks && (s == 0 || progress_[static_cast<std::size_t>(s - 1)] > b + 1)) {
      push(tile + 1, me);
    }
    if (s + 1 == opt_.strips || (b > 0 && progress_[static_cast<std::size_t>(s + 1)] < b)) {
      return kNoTile;
    }
    if (b == 0 && s + 1 > watermark_ + opt_.window) {
      parked_.push_back(s + 1);
      return kNoTile;
    }
    return tile + opt_.blocks;
  }

  void push(std::int64_t tile, std::size_t maker) CUDALIGN_REQUIRES(mutex_) {
    ready_.push_back(ReadyTile{tile, maker});
    cv_.notify_one();
  }

  /// Retires every consecutive completed strip from the watermark on, one
  /// participant at a time, with the mutex released around strip_done; each
  /// advance of the watermark releases the parked strips it lets in.
  void retire(std::unique_lock<std::mutex>& lock, std::size_t me) CUDALIGN_REQUIRES(mutex_) {
    retiring_ = true;
    while (!stop_ && watermark_ < opt_.strips &&
           progress_[static_cast<std::size_t>(watermark_)] == opt_.blocks) {
      const Index s = watermark_;
      lock.unlock();
      const bool go = !strip_done_ || strip_done_(s);
      lock.lock();
      if (!go) {
        stop_ = true;
        break;
      }
      watermark_ = s + 1;
      while (!parked_.empty() && parked_.front() <= watermark_ + opt_.window) {
        push(parked_.front() * opt_.blocks, me);
        parked_.pop_front();
      }
    }
    retiring_ = false;
    if (stop_ || watermark_ == opt_.strips) cv_.notify_all();
  }

  const SchedOptions opt_;
  const std::function<void(Index, Index)>& body_;
  const std::function<bool(Index)>& strip_done_;

  std::mutex mutex_;
  std::condition_variable cv_;  ///< Ready work, stop, or the last retirement.
  std::deque<ReadyTile> ready_ CUDALIGN_GUARDED_BY(mutex_);
  /// Strips whose tile (s, 0) is ready but outside the window; ascending.
  std::deque<Index> parked_ CUDALIGN_GUARDED_BY(mutex_);
  /// Completed tiles per strip.
  std::vector<Index> progress_ CUDALIGN_GUARDED_BY(mutex_);
  /// Strips retired so far.
  Index watermark_ CUDALIGN_GUARDED_BY(mutex_) = 0;
  bool retiring_ CUDALIGN_GUARDED_BY(mutex_) = false;
  bool stop_ CUDALIGN_GUARDED_BY(mutex_) = false;
  std::exception_ptr error_ CUDALIGN_GUARDED_BY(mutex_);
  SchedStats stats_ CUDALIGN_GUARDED_BY(mutex_);
};

}  // namespace

SchedStats run_tile_graph(const SchedOptions& options, ThreadPool& pool,
                          const std::function<void(Index s, Index b)>& body,
                          const std::function<bool(Index s)>& strip_done) {
  CUDALIGN_CHECK(options.strips > 0 && options.blocks > 0, "tile graph must be non-empty");
  CUDALIGN_CHECK(options.window > 0, "strip window must be positive");
  CUDALIGN_CHECK(body != nullptr, "tile graph needs a body");

  GraphRun run(options, body, strip_done);
  pool.parallel_for(pool.thread_count(), [&run](std::size_t me) { run.participate(me); });
  return run.finish();
}

}  // namespace cudalign::engine::sched
