// Dataflow tile scheduler: dependency-driven execution of the wavefront
// tile graph, replacing the external-diagonal barrier (ROADMAP item 2).
//
// The lockstep executor dispatches one external diagonal at a time, so every
// diagonal is a full barrier: one slow tile (pruned neighborhood, cold SRA
// flush, checkpoint fsync) stalls the whole pool. Here each tile (s, b) of
// the strips x blocks grid instead carries an atomic dependency counter —
// one unit per published input bus, left (s, b-1) and top (s-1, b) — and
// becomes runnable the moment the counter hits zero. Workers pull from
// per-thread work-stealing deques (bounded Chase-Lev; see WorkStealingDeque)
// seeded with tile (0, 0); completing a tile decrements its right and down
// successors and pushes any that became ready onto the finisher's own deque,
// so the frontier advances with no global synchronization at all.
//
// Three pieces of protocol on top of the bare DAG:
//
//   * Row-completion watermark. Strips still *retire* in order: the caller
//     thread (the driver) is woken as each strip's last tile completes and
//     runs `strip_done(s)` for s = 0, 1, 2, ... — the row watermark. All
//     deterministic post-processing (stats folds, best merges, special-row
//     flushes, checkpoint cursors) happens there, in a fixed order that does
//     not depend on the execution interleaving.
//   * Window gating. Tile (s, 0) is withheld (parked) until
//     s <= watermark + window. This bounds in-flight strips to window + 1,
//     which in turn bounds every per-strip resource the executor rotates
//     (vertical-bus planes, strip slots and their special rows) — without it
//     a depth-first column-0 chain could activate O(strips) strips.
//   * Epoch-based quiescence. Completion is a monotone epoch counter
//     (tiles_done); workers spin down when it reaches the tile total or when
//     the stop flag rises (driver early-stop or a worker exception — the
//     first exception is captured and rethrown on the caller after all
//     workers have drained).
//
// Memory ordering: the dependency decrement is fetch_sub(acq_rel), so the
// worker that observes a counter hit zero has acquired every write both
// predecessor tiles published (bus segments, strip slots); deque push/steal
// adds the usual release/acquire edge to whichever worker actually runs the
// tile. The per-strip remaining-tiles counter gives the driver the same
// guarantee for whole strips. Everything a tile writes may therefore be
// plain (non-atomic) data. Every seq_cst or relaxed site in sched.cpp
// carries a `// order:` justification, and the run state's mutex-protected
// fields are CUDALIGN_GUARDED_BY-annotated — both enforced statically by
// cudalint's explicit-memory-order and guarded-by rules.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hpp"

namespace cudalign::engine::sched {

/// Bounded single-owner work-stealing deque (Chase-Lev). The owner pushes
/// and pops at the bottom (LIFO); thieves steal from the top (FIFO). Fixed
/// power-of-two capacity: push() returns false when full and the caller
/// falls back to the shared injector queue, so the classic (fiddly) buffer
/// growth protocol is not needed. Elements are stored in atomic slots so the
/// benign push/steal overlap is data-race-free under TSan.
class WorkStealingDeque {
 public:
  explicit WorkStealingDeque(std::size_t capacity_pow2);

  /// Owner only. False = full (caller reroutes to the injector).
  bool push(std::int64_t value);
  /// Owner only. False = empty.
  bool pop(std::int64_t* out);
  /// Any thread. False = empty or lost the race for the last element.
  bool steal(std::int64_t* out);

 private:
  std::vector<std::atomic<std::int64_t>> buffer_;
  std::int64_t mask_;
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
};

struct SchedOptions {
  Index strips = 0;
  Index blocks = 0;
  int workers = 1;
  /// Strips past the watermark allowed in flight (window gating above).
  Index window = 8;
};

/// Scheduler-level counters folded into RunStats (and from there into the
/// run report) — the dataflow replacement for the lockstep diagonal profile.
struct SchedStats {
  std::int64_t tiles_executed = 0;
  std::int64_t tiles_stolen = 0;     ///< Tiles taken off another worker's deque.
  std::int64_t starvation_waits = 0; ///< Idle scans that found every source empty.
};

/// Executes `body(s, b, worker)` for every tile of the grid, honoring the
/// left + top dependency edges. `strip_done(s)` runs on the *caller* thread
/// in ascending strip order as strips complete (the row watermark);
/// returning false stops the run (remaining tiles are abandoned). Worker
/// threads are spawned per call — the executor's thread pool cannot host
/// them because its caller participates in every parallel_for, and here the
/// caller must stay free to act as the driver. Exceptions thrown by `body`
/// or `strip_done` stop the run and are rethrown on the caller.
SchedStats run_tile_graph(const SchedOptions& options,
                          const std::function<void(Index s, Index b, int worker)>& body,
                          const std::function<bool(Index s)>& strip_done);

}  // namespace cudalign::engine::sched
