// Wavefront executor: the CPU stand-in for the CUDA grid scheduler.
//
// The DP matrix is processed as strips (height alpha*T) x chunks (B column
// chunks). One wavefront core covers the tile grid: a tile body (s, b) that
// runs the kernel and folds its result into its strip's slot, and a strip
// retirement step that makes the slot observable — stats, best, probe hit,
// taps, special row, progress — in ascending strip order. Two
// registry-selectable executors differ only in the schedule that drives them:
//
//   * kLockstep — tiles on the same external diagonal are dispatched to a
//     thread pool with a barrier per diagonal, exactly the synchronization
//     the GPU grid provides between external diagonals; a strip retires
//     after the diagonal that ran its last tile.
//   * kDataflow — each tile runs the moment its left-bus and top-bus inputs
//     are published; the same pool's workers take ready tiles from one
//     locked queue (engine/sched.hpp), so a slow tile stalls only its own
//     successors instead of the whole pool. Strips retire at the
//     row-completion watermark, on whichever participant completes it.
//
// Either way, hook callbacks run one strip at a time, in ascending strip
// order, at strip retirement, so results are bit-identical for any worker
// count and between the two executors (the lockstep schedule is one legal
// execution of the dataflow dependency graph).
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
// written), where the ring holds the strips in flight — min(strips, blocks)
// under lockstep, min(strips, window + 2) under dataflow — plus one reused
// n-cell row buffer per special strip that can be in flight: the engine is
// linear-space by construction.
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
// identical cell counts) rather than its GPU-register mechanics; fill/drain
// accounting is still reported in RunStats for the benchmarks.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
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

/// Which schedule drives the tile grid (see the header comment). Both run the
/// same tile body and retirement step and produce byte-identical results;
/// dataflow is the default, lockstep the reference schedule with one
/// external-diagonal barrier.
enum class ExecutorKind : std::uint8_t {
  kLockstep,
  kDataflow,
};

/// Registry name of an executor ("lockstep" / "dataflow").
[[nodiscard]] const char* executor_name(ExecutorKind kind);
/// Inverse of executor_name; throws cudalign::Error on unknown names.
[[nodiscard]] ExecutorKind executor_from_name(std::string_view name);

struct ProblemSpec {
  seq::SequenceView a;  ///< Rows (the problem's local orientation).
  seq::SequenceView b;  ///< Columns.
  Recurrence recurrence;
  GridSpec grid;

  /// Block pruning (the optimization the CUDAlign lineage added after this
  /// paper): in local mode, skip a tile when even a perfect-match
  /// continuation of its best incoming bus value cannot *strictly* beat the
  /// pruning bound. The bound is the *ancestor closure*: the best tile score
  /// seen anywhere in the tile's ancestor rectangle (strips <= s, chunks
  /// <= b), seeded with initial_best on resume — a function of the
  /// dependency DAG alone, so prune decisions are identical under both
  /// executors and for any worker count (a global evolving best would make
  /// them schedule-dependent under dataflow). Exact: a tile containing any
  /// cell of an optimal alignment has bound >= optimum >= closure (the path
  /// itself gains optimum - prefix with at most min(m - r0, n - c0) diagonal
  /// steps), so it is never pruned, and pruned tiles publish valid lower
  /// bounds (H = 0) on their buses. Only meaningful with kLocal; rejected
  /// with taps or probes.
  bool block_pruning = false;

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

  /// Tile-grid schedule. Every hook — taps, value probes, special rows,
  /// checkpoints, progress — is delivered at strip retirement under both,
  /// so the results are identical. The choice is deliberately NOT part of
  /// the checkpoint envelope: a checkpoint taken under one executor may be
  /// resumed under the other. Dataflow by default for every stage: it holds
  /// only window + 2 strips in flight where lockstep holds `blocks`.
  ExecutorKind executor = ExecutorKind::kDataflow;
};

/// Hook verdict after observing a special row / tap segment.
enum class HookAction {
  kContinue,
  kStop,  ///< Stop scheduling further tiles (orthogonal early exit).
};

struct Hooks {
  /// Flush every `special_row_interval` strips: on_special_row(row, cells,
  /// best_so_far) receives the complete (H, F) row at vertex row `row` (a
  /// multiple of the strip height, as in the paper) and the run's merged
  /// best-so-far (local mode) covering every cell up to that row —
  /// everything a checkpoint needs to make the flush durable progress.
  /// Called once per flush at strip retirement, in ascending row order; under
  /// dataflow that may be on a pool worker.
  /// 0 disables flushing.
  Index special_row_interval = 0;
  std::function<void(Index row, std::span<const BusCell> cells, const dp::LocalBest& best_so_far)>
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
  /// under both executors.
  std::function<void(Index done, Index total)> on_progress;

  /// Opt-in bus access auditor (check/bus_audit.hpp): when set, the executor
  /// reports every horizontal/vertical bus segment read and write with
  /// (strip, block, external diagonal, thread) coordinates and the auditor
  /// verifies the grid model's happens-before relation — write-once per pass,
  /// legal successor reads only, no read-before-write across diagonals. The
  /// caller inspects the auditor after the run. Null = no auditing (one
  /// branch per tile of overhead).
  check::BusAuditor* bus_audit = nullptr;

  /// Opt-in span telemetry (obs/telemetry.hpp): when set, the executor
  /// records one child span per bucket of external diagonals (lockstep,
  /// "diagonals a-b") or of retired strips (dataflow, "strips a-b"), at most
  /// kDiagonalBuckets of them, under the caller's open span — the wavefront
  /// phase profile behind the run report. Used on the calling thread only:
  /// never pass a shared recorder into engine runs launched from pool
  /// workers.
  obs::Telemetry* telemetry = nullptr;
};

/// Span-bucket cap for Hooks::telemetry (8 buckets ≈ the short phase, the
/// plateau and the drain of the paper's Figure 5 wavefront profile).
inline constexpr Index kDiagonalBuckets = 8;

/// Per-kernel-variant tally (indexed by KernelId in RunStats::kernels).
struct KernelTally {
  Index tiles = 0;
  WideScore cells = 0;

  friend bool operator==(const KernelTally&, const KernelTally&) = default;
};

struct RunStats {
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
  /// External diagonals up to the last retired strip: s + blocks after strip
  /// s retires, the count lockstep has run by then, under both executors.
  Index diagonals = 0;
  /// Dataflow scheduler counters (0 under lockstep): tiles run by a
  /// participant other than the one that made them ready, and waits on an
  /// empty ready queue.
  Index tiles_stolen = 0;
  Index starvation_waits = 0;
  Index strips = 0;           ///< Strips retired.
  Index blocks_used = 0;      ///< B after the minimum-size fit.
  /// Peak bus memory (the engine's "VRAM"): horizontal bus, vertical-bus
  /// buffers and the special-row ring.
  std::size_t bus_bytes = 0;
  /// Bus traffic, tallied per retired strip (near-zero overhead; always
  /// on). Each tile performs one read and one write of its horizontal
  /// segment and of its vertical boundary — pruned tiles included, which
  /// scan their boundary for the bound and publish safe lower bounds — and
  /// special-row assembly re-reads each flushed horizontal segment. *_reads /
  /// *_writes count segments; *_bytes count payload moved in both directions.
  Index hbus_reads = 0, hbus_writes = 0;
  Index vbus_reads = 0, vbus_writes = 0;
  std::int64_t hbus_bytes = 0, vbus_bytes = 0;
  /// Time strip retirement spent inside on_special_row. Stage 1's hook
  /// copies the row into the SRA writer's queue and waits on backpressure
  /// (core/stage1.cpp). Under lockstep that wait stalls the next diagonal;
  /// under dataflow it is compute time lost on the retiring participant
  /// while the others keep computing.
  double special_row_wait_seconds = 0;
  double seconds = 0;
  /// Tiles/cells per kernel variant (pruned tiles are not attributed).
  std::array<KernelTally, kKernelIdCount> kernels{};
};

/// "name=tiles/cells" per variant that ran, comma-separated ("" if none) —
/// the human-readable form of a per-variant tally array for logs and --stats
/// output (stages accumulate the same array shape in StageStats).
[[nodiscard]] std::string kernel_usage_summary(
    const std::array<KernelTally, kKernelIdCount>& kernels);
[[nodiscard]] std::string kernel_usage_summary(const RunStats& stats);

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
