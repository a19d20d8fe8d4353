// Dataflow tile scheduler: the dependency-order property of run_tile_graph,
// the strip-retirement watermark (ascending, one strip at a time), window
// gating, early stop, exception propagation, the caller as a participant, and
// nested and one-worker calls.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "check/contracts.hpp"
#include "common/thread_pool.hpp"
#include "engine/sched.hpp"

namespace cudalign {
namespace {

using engine::sched::SchedOptions;
using engine::sched::SchedStats;
using engine::sched::run_tile_graph;

// ---------------------------------------------------------------------------
// run_tile_graph: ordering, watermark, window, stop and error paths.
// ---------------------------------------------------------------------------

SchedOptions graph(Index strips, Index blocks, Index window = 8) {
  SchedOptions o;
  o.strips = strips;
  o.blocks = blocks;
  o.window = window;
  return o;
}

TEST(TileGraph, ExecutesEveryTileOnceRespectingDependencies) {
  const Index strips = 13, blocks = 7;
  std::vector<std::atomic<int>> done(static_cast<std::size_t>(strips * blocks));
  for (auto& f : done) f.store(0);
  std::atomic<int> violations{0};
  ThreadPool pool(4);
  const auto body = [&](Index s, Index b) {
    // Both input tiles must be complete before this one starts.
    if (b > 0 && done[static_cast<std::size_t>(s * blocks + b - 1)].load() == 0) ++violations;
    if (s > 0 && done[static_cast<std::size_t>((s - 1) * blocks + b)].load() == 0) ++violations;
    done[static_cast<std::size_t>(s * blocks + b)].fetch_add(1);
  };
  const SchedStats stats = run_tile_graph(graph(strips, blocks), pool, body, {});
  EXPECT_EQ(violations.load(), 0);
  for (const auto& f : done) EXPECT_EQ(f.load(), 1);
  EXPECT_EQ(stats.tiles_executed, strips * blocks);
}

TEST(TileGraph, StripDoneRunsAscendingOnCallerThread) {
  // strip_done may run on any participant, but strictly one strip at a time
  // and in ascending order; the sleep widens any overlap window.
  const Index strips = 9, blocks = 5;
  ThreadPool pool(3);
  std::atomic<int> inside{0};
  std::atomic<int> overlaps{0};
  std::vector<Index> retired;
  const auto body = [](Index, Index) {};
  const auto strip_done = [&](Index s) {
    if (inside.fetch_add(1) != 0) ++overlaps;
    retired.push_back(s);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    inside.fetch_sub(1);
    return true;
  };
  (void)run_tile_graph(graph(strips, blocks), pool, body, strip_done);
  EXPECT_EQ(overlaps.load(), 0);
  ASSERT_EQ(retired.size(), static_cast<std::size_t>(strips));
  for (Index s = 0; s < strips; ++s) EXPECT_EQ(retired[static_cast<std::size_t>(s)], s);
}

TEST(TileGraph, NestedAndOneWorkerCallsRetireEveryStrip) {
  // Inside a pool iteration the call runs as one inline participant that
  // computes and retires everything itself, and steals nothing. A one-worker
  // pool computes on two participants, its worker and the caller.
  const Index strips = 12, blocks = 3;
  const auto body = [](Index, Index) {};
  const auto retire_all = [&](ThreadPool& pool, bool lone) {
    std::vector<Index> retired;
    const SchedStats stats =
        run_tile_graph(graph(strips, blocks, 2), pool, body, [&](Index s) {
          retired.push_back(s);
          return true;
        });
    EXPECT_EQ(stats.tiles_executed, strips * blocks);
    if (lone) {
      EXPECT_EQ(stats.tiles_stolen, 0);
    }
    return retired;
  };
  std::vector<Index> ascending(static_cast<std::size_t>(strips));
  for (Index s = 0; s < strips; ++s) ascending[static_cast<std::size_t>(s)] = s;

  ThreadPool pool(4);
  std::vector<std::vector<Index>> nested(4);
  pool.parallel_for(nested.size(), [&](std::size_t i) { nested[i] = retire_all(pool, true); });
  for (const auto& retired : nested) EXPECT_EQ(retired, ascending);

  ThreadPool one(1);
  EXPECT_EQ(retire_all(one, false), ascending);
  std::vector<std::vector<Index>> nested_one(2);
  one.parallel_for(nested_one.size(),
                   [&](std::size_t i) { nested_one[i] = retire_all(one, true); });
  for (const auto& retired : nested_one) EXPECT_EQ(retired, ascending);
}

TEST(TileGraph, CallerParticipates) {
  // ThreadPool(3) computes on 4 threads: its 3 workers and the caller. The 4
  // tiles of anti-diagonal 3 of a 4 x 4 grid become ready together (every
  // later tile depends on one of them), and each waits until all 4 have
  // started, so they can only all start on 4 distinct threads. The wait is
  // bounded: with a participant missing the test fails instead of hanging.
  ThreadPool pool(3);
  std::mutex mutex;
  std::condition_variable cv;
  int arrived = 0;
  bool gave_up = false;
  std::set<std::thread::id> threads;
  const auto body = [&](Index s, Index b) {
    std::unique_lock<std::mutex> lock(mutex);
    threads.insert(std::this_thread::get_id());
    if (s + b != 3) return;
    ++arrived;
    cv.notify_all();
    if (!cv.wait_for(lock, std::chrono::seconds(20), [&] { return arrived == 4 || gave_up; })) {
      gave_up = true;
      cv.notify_all();
    }
  };
  const SchedStats stats = run_tile_graph(graph(4, 4), pool, body, {});
  EXPECT_FALSE(gave_up) << "anti-diagonal 3 never ran on 4 threads at once";
  EXPECT_EQ(arrived, 4);
  EXPECT_EQ(threads.size(), 4u);
  EXPECT_EQ(stats.tiles_executed, 16);
}

TEST(TileGraph, WindowBoundsInFlightStrips) {
  // No strip may start more than `window` strips past the retirement
  // watermark — the invariant the executor's plane rotation depends on.
  const Index strips = 40, blocks = 3, window = 2;
  std::atomic<Index> watermark{0};
  std::atomic<int> violations{0};
  ThreadPool pool(4);
  const auto body = [&](Index s, Index) {
    if (s > watermark.load(std::memory_order_acquire) + window) ++violations;
  };
  const auto strip_done = [&](Index s) {
    watermark.store(s + 1, std::memory_order_release);
    return true;
  };
  (void)run_tile_graph(graph(strips, blocks, window), pool, body, strip_done);
  EXPECT_EQ(violations.load(), 0);
}

TEST(TileGraph, StripDoneReturningFalseStopsTheRun) {
  const Index strips = 30, blocks = 4;
  std::vector<Index> retired;
  ThreadPool pool(4);
  const auto body = [](Index, Index) {};
  const auto strip_done = [&](Index s) {
    retired.push_back(s);
    return s < 2;  // Stop after retiring strip 2.
  };
  const SchedStats stats = run_tile_graph(graph(strips, blocks, 2), pool, body, strip_done);
  ASSERT_EQ(retired.size(), 3u);
  EXPECT_EQ(retired.back(), 2);
  // The window kept the abandoned tail small: nowhere near the full grid ran.
  EXPECT_LT(stats.tiles_executed, strips * blocks);
}

TEST(TileGraph, BodyExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  const auto body = [](Index s, Index b) {
    if (s == 3 && b == 1) throw std::runtime_error("tile blew up");
  };
  try {
    (void)run_tile_graph(graph(8, 4), pool, body, {});
    FAIL() << "exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "tile blew up");
  }
}

TEST(TileGraph, StripDoneExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  const auto body = [](Index, Index) {};
  const auto strip_done = [](Index s) -> bool {
    if (s == 2) throw std::runtime_error("flush failed");
    return true;
  };
  EXPECT_THROW((void)run_tile_graph(graph(8, 4), pool, body, strip_done), std::runtime_error);
}

TEST(TileGraph, SingleWorkerAndSingleTileDegenerates) {
  // One tile on a one-worker pool's two participants: one of them runs it,
  // stolen when it is not the participant that seeded it. Nested inside a
  // pool iteration, the lone inline participant runs it and steals nothing.
  std::atomic<int> calls{0};
  ThreadPool pool(1);
  const auto body = [&](Index s, Index b) {
    EXPECT_EQ(s, 0);
    EXPECT_EQ(b, 0);
    ++calls;
  };
  const SchedStats stats = run_tile_graph(graph(1, 1), pool, body, {});
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(stats.tiles_executed, 1);
  EXPECT_LE(stats.tiles_stolen, 1);

  calls = 0;
  SchedStats nested;
  pool.parallel_for(2, [&](std::size_t i) {
    if (i == 0) nested = run_tile_graph(graph(1, 1), pool, body, {});
  });
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(nested.tiles_executed, 1);
  EXPECT_EQ(nested.tiles_stolen, 0);
}

TEST(TileGraph, RejectsEmptyGridAndBadOptions) {
  ThreadPool pool(1);
  const auto body = [](Index, Index) {};
  EXPECT_THROW((void)run_tile_graph(graph(0, 4), pool, body, {}), Error);
  EXPECT_THROW((void)run_tile_graph(graph(4, 0), pool, body, {}), Error);
  EXPECT_THROW((void)run_tile_graph(graph(4, 4, 0), pool, body, {}), Error);
}

TEST(TileGraph, TallNarrowGridStealsAcrossWorkers) {
  // Two blocks per strip: at most two tiles are ever ready, so participants
  // mostly starve, which exercises the wait/hand-off path without
  // deadlocking. (A one-block grid would be sequential by construction.)
  const Index strips = 200, blocks = 2;
  ThreadPool pool(4);
  std::atomic<Index> count{0};
  const auto body = [&](Index, Index) { count.fetch_add(1); };
  const SchedStats stats = run_tile_graph(graph(strips, blocks, 4), pool, body, {});
  EXPECT_EQ(count.load(), strips * blocks);
  EXPECT_EQ(stats.tiles_executed, strips * blocks);
}

}  // namespace
}  // namespace cudalign
