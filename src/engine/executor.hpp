// Wavefront executor: the CPU stand-in for the CUDA grid scheduler.
//
// The DP matrix is processed as strips (height alpha*T) x chunks (B column
// chunks). One wavefront core covers the tile grid: a tile body (s, b) that
// runs the kernel and folds its result into its strip's slot, and a strip
// retirement step that makes the slot observable — stats, best, probe hit,
// taps, special row, progress — in ascending strip order.
//
// The schedule is dataflow: each tile runs the moment its left-bus and
// top-bus inputs are published, and the pool's workers take ready tiles from
// one locked queue (engine/sched.hpp), so a slow tile stalls only its own
// successors. The paper's grid puts a barrier between external diagonals
// instead; that is one legal execution of the same dependency graph, with
// the same results. Strips retire at the row-completion watermark, on
// whichever participant completes it, and hook callbacks run one strip at a
// time, in ascending strip order, so results are bit-identical for any
// worker count.
//
// Sentinel boundaries: the reverse corners of end types E and F
// (dp::end_corner) make H = -inf on column 0 (end in E) or on row 0 (end in
// F), and the striped global kernel's envelope rejects every tile that reads
// a sentinel H. The executor peels that line off once, for every stage: a
// sentinel column 0 becomes its own one-wide chunk, and each strip-0 tile of
// a fresh run with a sentinel row 0 runs its first row as a separate kernel
// call, so the tiles after them start from genuine H.
//
// Memory is the buses only: O(n) horizontal + O(ring * alpha * T) vertical,
// two buffers per strip slot (a strip's tiles run in chunk order, so its
// vertical hand-off needs only the buffer being read and the one being
// written), where the ring holds the strips in flight, min(strips,
// window + 2), plus one n-cell row buffer per special strip that can be in
// flight: the engine is linear-space by construction.
//
// Thread-safety discipline: the executor itself owns no atomics and no
// locks. Every cross-thread hand-off is delegated to the schedulers
// (common/thread_pool.hpp, engine/sched.hpp) whose shared state carries
// CUDALIGN_GUARDED_BY annotations (and, in the pool, `// order:` notes)
// (check/annotations.hpp; enforced by cudalint's concurrency rule pack) —
// tile data itself stays plain because the scheduler edges order it, as the
// bus auditor (check/bus_audit.hpp) verifies dynamically.
//
// Cells delegation (paper §III-C) note: on the GPU, delegation skews block
// shapes so the wavefront never drains between external diagonals. A CPU
// thread pool gets the same effect for free — idle workers pick up any ready
// tile — so the executor models delegation's *effect* (full parallelism,
// identical cell counts) rather than its GPU-register mechanics.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "engine/grid.hpp"
#include "engine/kernels.hpp"

namespace cudalign::check {
class BusAuditor;
}

namespace cudalign::obs {
class Telemetry;
}

namespace cudalign::engine {

/// The one tile-grid schedule (see the header comment). Nothing reads it: it
/// types the two held fields below, ProblemSpec::executor and
/// core::PipelineOptions::executor, and goes with them.
enum class ExecutorKind : std::uint8_t { kDataflow };

/// Strips between a retired strip and the strips whose pruning bound reads
/// its cumulative best (ProblemSpec::block_pruning). The strip window is
/// clamped below it, so the strip read has always retired.
inline constexpr Index kPruneLag = 16;

/// Block-pruning state at a strip boundary: what a wavefront resumed there
/// needs to prune exactly as an uninterrupted run does. Empty unless pruning.
struct PruneState {
  /// Cumulative best score after each of the kPruneLag strips ending at the
  /// boundary retired, oldest first (0 for strips before row 0).
  std::vector<Score> lagged;

  friend bool operator==(const PruneState&, const PruneState&) = default;
};

struct ProblemSpec {
  seq::SequenceView a;  ///< Rows (the problem's local orientation).
  seq::SequenceView b;  ///< Columns.
  Recurrence recurrence;
  GridSpec grid;

  /// Block pruning (the optimization the CUDAlign lineage added after this
  /// paper): in local mode, skip tile (s, b) when even a perfect-match
  /// continuation of its best incoming bus value max_in cannot *strictly*
  /// beat the larger of two scores: max_in + match * min(m - r0, n - c0) <
  /// max(prune_floor, the cumulative best after strip s - kPruneLag retired).
  /// The floor depends only on the sequences, the lagged best only on retired
  /// strips, so prune decisions are
  /// identical for any worker count (a global evolving best would make them
  /// schedule-dependent). Exact: both terms are scores some alignment
  /// achieves, so neither exceeds the optimum, and a tile containing any cell
  /// of an optimal alignment has bound >= optimum (the path itself gains
  /// optimum - prefix with at most min(m - r0, n - c0) diagonal steps), so it
  /// is never pruned; pruned tiles publish valid lower bounds (H = 0) on
  /// their buses. Only meaningful with kLocal; rejected with taps or probes.
  bool block_pruning = false;

  /// A lower bound L on the optimum, the pruning bound's first term
  /// (block_pruning only; 0 = none). Exact when L is the score of a real
  /// local alignment (core::prune_floor). L is never reported as a best and
  /// carries no end point; a run whose best comes out below it had an
  /// invalid floor (Stage 1 refuses it).
  Score prune_floor = 0;

  /// Resume support (checkpoint/resume, DESIGN.md "Checkpoint & resume"):
  /// start the wavefront at vertex row `start_row` instead of row 0. Must be
  /// a multiple of the grid's strip height and is only meaningful with
  /// `initial_hbus` — the complete (H, F) horizontal bus at that row, i.e. a
  /// restored special row of n+1 cells. Strip numbering stays *global* (strip
  /// k covers rows [k*strip_rows, (k+1)*strip_rows)), so special-row flushes
  /// of a resumed run land on exactly the rows an uninterrupted run flushes.
  Index start_row = 0;
  std::span<const BusCell> initial_hbus;

  /// Best-so-far carried across a resume (local mode). Merging is a total-
  /// order max (score desc, then row-major vertex), so re-merging candidates
  /// from recomputed cells is idempotent: the resumed run's final best is
  /// bit-identical to an uninterrupted run's.
  dp::LocalBest initial_best;

  /// Pruning state carried across a resume (block_pruning only): the
  /// PruneState on_special_row delivered with the restored row. Required
  /// when a pruned run starts past row 0, so the resumed run prunes exactly
  /// the tiles an uninterrupted run prunes.
  PruneState initial_prune;

  /// Held only for e2ebench/traced.cpp:199, which assigns it; the engine
  /// never reads it. It goes together with that line.
  ExecutorKind executor = ExecutorKind::kDataflow;
};

/// Hook verdict after observing a special row / tap segment.
enum class HookAction {
  kContinue,
  kStop,  ///< Stop scheduling further tiles (orthogonal early exit).
};

struct Hooks {
  /// Flush every `special_row_interval` strips: on_special_row(row, cells,
  /// best_so_far, prune) receives the complete (H, F) row at vertex row `row`
  /// (a multiple of the strip height, as in the paper), the run's merged
  /// best-so-far (local mode) covering every cell up to that row, and the
  /// pruning state there (empty unless pruning) — everything a checkpoint
  /// needs to make the flush durable progress.
  /// `cells` is the engine's own row buffer: the hook may take its contents
  /// and leave another buffer of any size, or an empty one, in its place
  /// (the next special strip to use the buffer resizes it), so a row changes
  /// hands without a copy.
  /// Called once per flush at strip retirement, in ascending row order; under
  /// dataflow that may be on a pool worker.
  /// 0 disables flushing.
  Index special_row_interval = 0;
  std::function<void(Index row, std::vector<BusCell>& cells, const dp::LocalBest& best_so_far,
                     const PruneState& prune)>
      on_special_row;

  /// Column taps (ascending vertex columns in (0..n]): as each strip retires,
  /// the hook receives the (H, E) values at each tap column in ascending
  /// column order; entry k of the span is row first_row + k (inclusive). The
  /// row-0 boundary values are delivered once up front as a single-entry
  /// span with first_row = 0.
  std::vector<Index> tap_columns;
  std::function<HookAction(Index col, Index first_row, std::span<const BusCell>)> on_tap;

  /// Probe: report the row-major-first cell whose H equals this value, then
  /// stop. Checked as each strip retires, before its taps: the first strip
  /// with a hit reports the smallest (i, j) among its tiles' hits.
  std::optional<Score> find_value;

  /// Liveness reporting for long runs: called at each strip retirement with
  /// (tiles of retired strips, tiles total) — a monotone fraction, identical
  /// for any worker count.
  std::function<void(Index done, Index total)> on_progress;

  /// Opt-in bus access auditor (check/bus_audit.hpp): when set, the executor
  /// reports every horizontal/vertical bus segment read and write with
  /// (strip, block, thread) coordinates and the auditor verifies the grid
  /// model's happens-before relation — write-once per pass, legal successor
  /// reads only, no read before its writer has published. The
  /// caller inspects the auditor after the run. Null = no auditing (one
  /// branch per tile of overhead).
  check::BusAuditor* bus_audit = nullptr;

  /// Opt-in span telemetry (obs/telemetry.hpp): when set, the executor
  /// records one child span per bucket of retired strips ("strips a-b"), at
  /// most kSpanBuckets of them, under the caller's open span — the wavefront
  /// phase profile behind the run report. Used on the calling thread only:
  /// never pass a shared recorder into engine runs launched from pool
  /// workers.
  obs::Telemetry* telemetry = nullptr;
};

/// Span-bucket cap: Hooks::telemetry buckets retired strips, and Stage 2
/// buckets its traceback iterations (8 buckets ≈ the short phase, the
/// plateau and the drain of the paper's Figure 5 wavefront profile).
inline constexpr Index kSpanBuckets = 8;

/// Per-kernel-variant tally (indexed by KernelId in Tally::kernels).
struct KernelTally {
  Index tiles = 0;
  WideScore cells = 0;

  friend bool operator==(const KernelTally&, const KernelTally&) = default;
};

/// The deterministic work counters of a run: they do not depend on the
/// worker count or the schedule, so two runs of one spec compare their
/// tallies with one ==. Each strip's tiles count into
/// its slot's tally, retirement folds it into the run's (RunStats), and
/// core::StageStats folds the runs of a stage.
struct Tally {
  /// DP cells computed by retired strips (an early stop leaves the tiles of
  /// strips still in flight uncounted, as it leaves their hooks undelivered).
  WideScore cells = 0;
  WideScore pruned_cells = 0; ///< Cells skipped by block pruning.
  Index pruned_tiles = 0;
  Index tiles = 0;            ///< Kernel calls (a peeled tile makes two) plus pruned tiles.
  /// Kernel calls whose narrow striped attempt overflowed its lanes and
  /// re-ran on wider ones (TileResult::rerun), and their cells (counted
  /// once, so never more than `cells`). Their tallies in `kernels` name the
  /// variant that published.
  Index narrow_rerun_tiles = 0;
  WideScore narrow_rerun_cells = 0;
  /// Bus payload moved in both directions, tallied per retired strip. Each
  /// tile reads and writes its horizontal segment and its vertical boundary
  /// — pruned tiles included, which scan their boundary for the bound and
  /// publish safe lower bounds — and special-row assembly re-reads each
  /// flushed horizontal segment.
  std::int64_t hbus_bytes = 0, vbus_bytes = 0;
  /// Tiles/cells per kernel variant (pruned tiles are not attributed).
  std::array<KernelTally, kKernelIdCount> kernels{};

  Tally& operator+=(const Tally& other) {
    cells += other.cells;
    pruned_cells += other.pruned_cells;
    pruned_tiles += other.pruned_tiles;
    tiles += other.tiles;
    narrow_rerun_tiles += other.narrow_rerun_tiles;
    narrow_rerun_cells += other.narrow_rerun_cells;
    hbus_bytes += other.hbus_bytes;
    vbus_bytes += other.vbus_bytes;
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      kernels[k].tiles += other.kernels[k].tiles;
      kernels[k].cells += other.kernels[k].cells;
    }
    return *this;
  }
  friend bool operator==(const Tally&, const Tally&) = default;
};

/// One run: its tally plus what depends on the schedule or the machine.
struct RunStats : Tally {
  Index strips = 0;           ///< Strips retired.
  Index blocks_used = 0;      ///< B after fit_to_width (a peeled sentinel column not counted).
  /// Peak bus memory (the engine's "VRAM"): horizontal bus, vertical-bus
  /// buffers and the special-row ring.
  std::size_t bus_bytes = 0;
  /// Scheduler counters (engine/sched.hpp): tiles run by a participant other
  /// than the one that made them ready, and waits on an empty ready queue.
  /// They depend on the worker count, so they stay outside the tally.
  Index tiles_stolen = 0;
  Index starvation_waits = 0;
  /// Time strip retirement spent inside on_special_row. Stage 1's hook moves
  /// the row into the SRA writer's queue, so this is the queue's
  /// backpressure (core/stage1.cpp): compute time lost on the retiring
  /// participant while the others keep computing.
  double special_row_wait_seconds = 0;
  double seconds = 0;
};

/// "name=tiles/cells" per variant that ran, comma-separated ("" if none) —
/// the human-readable form of a per-variant tally array for logs and --stats
/// output.
[[nodiscard]] std::string kernel_usage_summary(
    const std::array<KernelTally, kKernelIdCount>& kernels);

struct RunResult {
  dp::LocalBest best;          ///< kLocal mode: best H and its vertex (retired strips).
  bool found = false;          ///< find_value probe hit.
  Index found_i = 0, found_j = 0;
  bool stopped_early = false;  ///< A hook returned kStop (or probe hit).
  RunStats stats;
};

/// Runs the wavefront over the whole problem. `pool` defaults to the shared
/// pool. Deterministic for any worker count. The process-wide kernel pin
/// (CUDALIGN_KERNEL / set_kernel_override) is read once, on the calling
/// thread, and applies to every tile of the run.
[[nodiscard]] RunResult run_wavefront(const ProblemSpec& spec, const Hooks& hooks,
                                      ThreadPool* pool = nullptr);

/// Reference single-sweep row visitor equivalent (test oracle): identical
/// semantics to run_wavefront but via dp::sweep_rows; used in tests only.
[[nodiscard]] RunResult run_reference(const ProblemSpec& spec, const Hooks& hooks);

}  // namespace cudalign::engine
