// Dataflow tile scheduler: dependency-driven execution of the wavefront
// tile graph, replacing the external-diagonal barrier (ROADMAP item 2).
// Tile (s, b) of the strips x blocks grid runs the moment its left (s, b-1)
// and top (s-1, b) inputs are published, so one slow tile (pruned
// neighborhood, cold SRA flush) stalls only its successors, not the pool.
//
// The run is one ThreadPool::parallel_for whose iterations are participants,
// one per thread of the pool: its workers and the caller.
// All scheduler state sits behind one mutex: within a strip each tile
// depends on the one to its left, so at most window + 1 tiles are ready or
// running at once. A participant runs the down successor (s+1, b) of its
// tile itself when that became ready — same column chunk, so it reads the
// horizontal-bus segment just written and reuses the kernel's column
// profile — and queues the right successor for anyone. On top of the DAG:
//
//   * Row-completion watermark: strips *retire* in ascending order, one at a
//     time, on the participant that completes the watermark strip, with the
//     mutex released. All deterministic post-processing (stats folds, best
//     merges, special-row flushes with their resume state) happens there.
//   * Window gating: tile (s, 0) is parked until s <= watermark + window,
//     which bounds in-flight strips to window + 1 and with them every
//     per-strip resource the executor rotates.
//
// Every hand-off of a tile or a strip between participants goes through the
// mutex, so everything a tile writes may be plain data.
#pragma once

#include <cstdint>
#include <functional>

#include "common/thread_pool.hpp"
#include "common/types.hpp"

namespace cudalign::engine::sched {

struct SchedOptions {
  Index strips = 0;
  Index blocks = 0;
  /// Strips past the watermark allowed in flight (window gating above).
  Index window = 8;
};

/// Scheduler-level counters folded into RunStats (and from there into the
/// run report).
struct SchedStats {
  std::int64_t tiles_executed = 0;
  std::int64_t tiles_stolen = 0;     ///< Run by a participant that did not make them ready.
  std::int64_t starvation_waits = 0; ///< Condition-variable waits on an empty ready queue.
};

/// Executes `body(s, b)` for every tile of the grid on `pool`, honoring the
/// left + top dependency edges. `strip_done(s)` runs in ascending strip
/// order, one strip at a time, as strips complete (the row watermark), on
/// whichever participant completed the strip — the caller or a pool worker;
/// returning false stops the run (remaining tiles are abandoned). The run has
/// pool.thread_count() participants: every worker and the caller. A call
/// from inside a pool iteration runs as one inline participant. Exceptions
/// thrown by `body` or `strip_done` stop the run and are rethrown on the
/// caller.
SchedStats run_tile_graph(const SchedOptions& options, ThreadPool& pool,
                          const std::function<void(Index s, Index b)>& body,
                          const std::function<bool(Index s)>& strip_done);

}  // namespace cudalign::engine::sched
