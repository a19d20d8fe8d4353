// The six CUDAlign 2.0 stages (paper §IV). Each stage is independently
// callable (tests exercise them in isolation); the pipeline driver
// (pipeline.hpp) chains them with shared statistics.
#pragma once

#include <algorithm>
#include <array>
#include <filesystem>
#include <optional>
#include <span>
#include <vector>

#include "alignment/alignment.hpp"
#include "alignment/gaplist.hpp"
#include "alignment/render.hpp"
#include "check/bus_audit.hpp"
#include "core/crosspoint.hpp"
#include "engine/executor.hpp"
#include "sra/sra.hpp"

namespace cudalign::obs {
class Telemetry;
}

namespace cudalign::core {

/// Per-stage accounting feeding Tables IV, V, VII and VIII and the
/// observability run report (obs/report.hpp): the engine tally of the
/// stage's runs (engine/executor.hpp; `cells` is the paper's Cells_k) plus
/// what the schedule, the SRA and the clock add. All counters are always
/// collected — they are tallied on the calling thread after each engine run,
/// cheap enough to never gate.
struct StageStats : engine::Tally {
  double seconds = 0;
  Index crosspoints = 0;     ///< |L_k| after the stage.
  Index blocks_used = 0;     ///< Max B_k actually used (after fit_to_width).
  std::size_t ram_bytes = 0; ///< Peak engine bus memory ("VRAM_k").
  /// Scheduler counters (engine RunStats semantics, summed over runs).
  Index tiles_stolen = 0;
  Index starvation_waits = 0;
  /// SRA traffic attributed to this stage (special rows or columns).
  Index sra_rows_flushed = 0, sra_rows_read = 0;
  std::int64_t sra_bytes_flushed = 0, sra_bytes_read = 0;
  /// Flush-pipeline accounting (sra/async_writer.hpp). `sra_rows_acked`
  /// counts durably acknowledged rows — equal to `sra_rows_flushed` at
  /// completion (the run-report validator enforces it).
  /// `sra_flush_wait_seconds` is the time spent inside the flush hook at
  /// strip retirement (engine RunStats `special_row_wait_seconds`; compute
  /// time lost on the retiring participant while the others keep
  /// computing). The hook moves the row rather than copying it, so in Stage
  /// 1 this is the writer queue's backpressure.
  /// `sra_writer_busy_seconds` is the writer thread's time in put() + ack.
  Index sra_rows_acked = 0;
  std::size_t sra_flush_queue_peak = 0;
  double sra_flush_wait_seconds = 0;
  double sra_writer_busy_seconds = 0;
  /// Kernel wall time per variant (engine RunStats `kernel_seconds`, summed
  /// over runs).
  std::array<double, engine::kKernelIdCount> kernel_seconds{};

  /// The paper's throughput metric (§V-A) at giga scale.
  [[nodiscard]] double gcups() const noexcept {
    return seconds > 0 ? static_cast<double>(cells) / seconds / 1e9 : 0;
  }

  /// Folds one complete engine run into this stage: the tally, the scheduler
  /// counters and the flush-hook wait accumulate; blocks and bus memory keep
  /// their high-water marks.
  void add_run(const engine::RunStats& run) {
    *this += run;
    tiles_stolen += run.tiles_stolen;
    starvation_waits += run.starvation_waits;
    sra_flush_wait_seconds += run.special_row_wait_seconds;
    for (std::size_t k = 0; k < kernel_seconds.size(); ++k) {
      kernel_seconds[k] += run.kernel_seconds[k];
    }
    blocks_used = std::max(blocks_used, run.blocks_used);
    ram_bytes = std::max(ram_bytes, run.bus_bytes);
  }
};

/// SRA group tags: Stage-1 special rows go to group kRowsGroup of the rows
/// area; the special columns of Stage-2 iteration k go to group
/// kColsGroupBase + k of the columns area.
inline constexpr std::int64_t kRowsGroup = 1;
inline constexpr std::int64_t kColsGroupBase = 1000;

// ---------------------------------------------------------------------------
// Stage 1 — obtain the best score (paper §IV-B).
// ---------------------------------------------------------------------------

struct Stage1Config {
  scoring::Scheme scheme;
  engine::GridSpec grid = engine::GridSpec::stage1_defaults();
  /// Block pruning (post-paper CUDAlign optimization; engine/executor.hpp).
  /// On by default: exact, and seeded with prune_floor it skips over 90% of
  /// a related pair's matrix. Cells_1 is then less than m*n (Tables IV-VIII
  /// turn it off).
  bool block_pruning = true;
  /// Flush special rows to `rows_area` (nullptr disables; Table IV's
  /// "No Flush" column).
  sra::SpecialRowsArea* rows_area = nullptr;
  /// Resume (DESIGN.md "Checkpoint & resume"): continue from the special
  /// rows already in `rows_area` (required). Each row file carries its
  /// resume state in its trailer — the merged best-so-far covering every
  /// cell up to the row and, when pruning, the kPruneLag lagged bests
  /// (engine::PruneState) — so the highest row is the restart point. The
  /// rows must be exactly the flush rows k * interval * strip_rows for
  /// k = 1..K; a gap is refused, naming the missing row. Strip numbering
  /// stays global, so flushes of the resumed run land on the same rows.
  bool resume = false;
  /// Durable-row ack: invoked right after each special row and its trailer
  /// are durable in `rows_area`. Special rows are written by a dedicated SRA
  /// writer thread (sra/async_writer.hpp; DESIGN.md "Stage-1 I/O overlap"),
  /// so this runs on that thread, in ascending-row order. Stage 1 drains the
  /// writer before returning, handing everything the callback touched back
  /// to the caller. The pipeline's fault injection counts these calls.
  std::function<void()> on_checkpoint;
  /// Liveness: fraction of Stage-1 cells completed (long chromosome runs).
  std::function<void(double fraction)> progress;
  /// Opt-in bus hand-off verification (engine/executor.hpp Hooks::bus_audit).
  check::BusAuditor* bus_audit = nullptr;
  /// Opt-in span telemetry (obs/telemetry.hpp): Stage 1 forwards it into the
  /// engine, which records one span per bucket of retired strips. Calling
  /// thread only.
  obs::Telemetry* telemetry = nullptr;
  ThreadPool* pool = nullptr;
};

struct Stage1Result {
  Crosspoint end_point;          ///< Best score and its position (type 0).
  Index special_rows_saved = 0;  ///< By this run; rows_restored were there before.
  /// Resume: the row the wavefront restarted at and the special rows on disk
  /// up to it (0 and 0 on a fresh run or when no row was durable yet).
  Index resumed_from_row = 0;
  Index rows_restored = 0;
  Index flush_interval = 0;      ///< Strips between flushes (0 = no flushing).
  /// The lower bound that seeded pruning (prune_floor; 0 without pruning) and
  /// the time its pass took, part of stats.seconds. Its cells stay out of
  /// the tally, so cells + pruned_cells is still m*n.
  Score prune_floor = 0;
  double prune_floor_seconds = 0;
  StageStats stats;
};

[[nodiscard]] Stage1Result run_stage1(seq::SequenceView s0, seq::SequenceView s1,
                                      const Stage1Config& config);

/// A lower bound on the optimal local score of `a` x `b`, the score of a real
/// local alignment found cheaply: seeds of 16 bases vote for the pair's
/// dominant diagonal, and a local pass runs in a band of +-64 around it (64-row
/// strips, one engine::run_tile each). 0 when no diagonal wins the vote, which
/// skips the band. Stage 1 seeds block pruning with it
/// (engine::ProblemSpec::prune_floor).
[[nodiscard]] Score prune_floor(seq::SequenceView a, seq::SequenceView b,
                                const scoring::Scheme& scheme);

// ---------------------------------------------------------------------------
// Stage 2 — partial traceback (paper §IV-C): reverse semi-global execution
// with goal-based matching and orthogonal execution; finds the crosspoints on
// the stage-1 special rows and the alignment start point, saving special
// columns for Stage 3. The row crossings run in speculative waves of up to
// pool->thread_count() (stage2.cpp); the result is the serial chain's.
// ---------------------------------------------------------------------------

struct Stage2Config {
  scoring::Scheme scheme;
  engine::GridSpec grid = engine::GridSpec::stage23_defaults();
  sra::SpecialRowsArea* rows_area = nullptr;  ///< Stage-1 rows (required).
  sra::SpecialRowsArea* cols_area = nullptr;  ///< Sink for special columns (optional).
  /// Goal pruning of every crossing (cross_row's `prune`; DESIGN.md "Goal
  /// pruning (Stages 2-4)"). Exact: the crosspoints do not change, while
  /// special-column cells off every optimal path may come out lower.
  bool block_pruning = true;
  check::BusAuditor* bus_audit = nullptr;
  /// Opt-in span telemetry: the traceback iterations (one per partition) in
  /// at most engine::kSpanBuckets spans, "iterations a-b"; a span holds the
  /// waves that start in its range.
  obs::Telemetry* telemetry = nullptr;
  ThreadPool* pool = nullptr;
};

/// How Stage 2's speculative waves went (run_stage2). The counts depend on
/// the wave widths, which follow the pool size, so they stay out of
/// engine::Tally: the stage's tally counts kept iterations only. Every kept
/// iteration is a wave's first member, a guess hit or a re-run, so
/// waves + guess_hits + reruns == |L_2| - 1.
struct Stage2Speculation {
  Index waves = 0;
  Index guess_hits = 0;  ///< Members kept as run from their guessed start.
  Index reruns = 0;      ///< Members re-run from the true start.
  /// Runs thrown away (a missed guess, or a member above the start point),
  /// and their cells.
  Index discarded_iterations = 0;
  WideScore discarded_cells = 0;
  /// Special rows read by members above the start point (not in the stage's
  /// sra_bytes_read, which counts the kept iterations' rows).
  std::int64_t discarded_bytes_read = 0;
};

struct Stage2Result {
  CrosspointList crosspoints;  ///< L_2: start point ... end point.
  Index special_cols_saved = 0;
  StageStats stats;
  Stage2Speculation speculation;
};

[[nodiscard]] Stage2Result run_stage2(seq::SequenceView s0, seq::SequenceView s1,
                                      const Crosspoint& end_point, const Stage2Config& config);

/// One goal-matched crossing (Figure 6 with orthogonal execution), the step
/// Stage 2 takes per special row, Stage 3 per special column and Stage 4 per
/// middle row: `next` is the crosspoint on the row or, when the probe fires
/// first, the start point (score corner.score, type H); none when neither was
/// reached.
struct RowCrossing {
  std::optional<Crosspoint> next;
  engine::RunStats run;
};

/// Crosses row corner.i coming from `from`: the engine runs the transposed,
/// reversed problem over rows [corner.i, from.i) x columns [corner.j, from.j)
/// of the matrix whose reversed sequences are `a_rev` and `b_rev`, matching
/// the row, the engine problem's last column (engine::Hooks::on_tap), from
/// the right. Its origin is `from`, in state
/// transpose_state(from.type): global_start when `from_starts` (the sub-path
/// starts at `from`, entering in from.type with the gap-open discount),
/// global_end otherwise (it ends there). Stages 2 and 4 cross a row on the
/// way back from a later crosspoint. Stage 3 crosses a column forward from
/// an earlier one, by handing over the transposed, mirrored matrix
/// (stage3.cpp), where the engine's problem is the original one.
/// forward[k] is the row's (H, F) at column corner.j + k, relative to
/// corner.score (an empty `forward` matches nothing). `probe` adds the
/// start-point probe when the goal is reachable. `prune` turns on goal
/// pruning (engine::ProblemSpec::block_pruning): a tile is skipped when its
/// best input plus match * min(rows left, columns left) plus the best
/// junction value of `forward` (at least 0 with the probe on) cannot reach
/// the goal; the crossing is the same either way. cross_row owns the on_tap
/// and probe fields of `hooks`; the caller may set the others.
[[nodiscard]] RowCrossing cross_row(seq::SequenceView a_rev, seq::SequenceView b_rev,
                                    const Crosspoint& corner, const Crosspoint& from,
                                    std::span<const engine::BusCell> forward, bool probe,
                                    bool from_starts, bool prune, const engine::GridSpec& grid,
                                    const scoring::Scheme& scheme, engine::Hooks hooks,
                                    ThreadPool* pool);

// ---------------------------------------------------------------------------
// Stage 3 — splitting partitions (paper §IV-D): forward execution inside each
// partition, crossing the stage-2 special columns one after another.
// ---------------------------------------------------------------------------

struct Stage3Config {
  scoring::Scheme scheme;
  engine::GridSpec grid = engine::GridSpec::stage23_defaults();
  /// Stage-2 columns (required). Each partition's task reads its own
  /// columns, concurrently with the others (SpecialRowsArea::get).
  sra::SpecialRowsArea* cols_area = nullptr;
  /// Goal pruning of every crossing (cross_row's `prune`; DESIGN.md "Goal
  /// pruning (Stages 2-4)"). Exact: L_3 does not change.
  bool block_pruning = true;
  check::BusAuditor* bus_audit = nullptr;
  /// Opt-in span telemetry: one partition-split span only (partitions run on
  /// pool workers, so no per-partition engine spans).
  obs::Telemetry* telemetry = nullptr;
  ThreadPool* pool = nullptr;
};

struct Stage3Result {
  CrosspointList crosspoints;  ///< L_3.
  StageStats stats;
};

[[nodiscard]] Stage3Result run_stage3(seq::SequenceView s0, seq::SequenceView s1,
                                      const CrosspointList& l2, const Stage3Config& config);

// ---------------------------------------------------------------------------
// Stage 4 — Myers-Miller with balanced splitting and orthogonal execution
// (paper §IV-E), iterated until every partition fits the maximum partition
// size.
// ---------------------------------------------------------------------------

struct Stage4Config {
  scoring::Scheme scheme;
  Index max_partition_size = 16;  ///< The paper's chromosome run uses 16.
  bool balanced_splitting = true; ///< Off = classic middle-row MM (Figure 10a).
  bool orthogonal = true;         ///< Off = full reverse pass (Table IX Time_1).
  /// Goal pruning of the forward halves and the orthogonal reverse passes
  /// (DESIGN.md "Goal pruning (Stages 2-4)"). Exact: L_4 does not change.
  bool block_pruning = true;
  /// Opt-in span telemetry: one span per splitting iteration.
  obs::Telemetry* telemetry = nullptr;
  ThreadPool* pool = nullptr;
};

/// One Table-IX row.
struct Stage4Iteration {
  Index iteration = 0;
  Index h_max = 0;        ///< Largest partition height at iteration start.
  Index w_max = 0;
  Index crosspoints = 0;  ///< |L| at iteration start.
  double seconds = 0;
  WideScore cells = 0;
};

struct Stage4Result {
  CrosspointList crosspoints;  ///< L_4.
  std::vector<Stage4Iteration> iterations;
  StageStats stats;
};

[[nodiscard]] Stage4Result run_stage4(seq::SequenceView s0, seq::SequenceView s1,
                                      const CrosspointList& l3, const Stage4Config& config);

// ---------------------------------------------------------------------------
// Stage 5 — obtaining the full alignment (paper §IV-F): exact alignment of
// every (constant-size) partition, concatenation, binary gap-list output.
// ---------------------------------------------------------------------------

struct Stage5Config {
  scoring::Scheme scheme;
  ThreadPool* pool = nullptr;
};

struct Stage5Result {
  alignment::Alignment alignment;
  alignment::BinaryAlignment binary;
  /// Partition statistics for the run report.
  Index partitions = 0;
  Index h_max = 0;  ///< Largest partition height solved.
  Index w_max = 0;
  StageStats stats;
};

[[nodiscard]] Stage5Result run_stage5(seq::SequenceView s0, seq::SequenceView s1,
                                      const CrosspointList& l4, const Stage5Config& config);

// ---------------------------------------------------------------------------
// Stage 6 — visualization (paper §IV-G): reconstruct the alignment from its
// binary representation, scored by the scheme it records; render text,
// statistics and the Figure-12 path dump.
// ---------------------------------------------------------------------------

struct Stage6Result {
  alignment::Alignment alignment;       ///< Reconstructed from the binary form.
  alignment::Stats composition;         ///< Table X.
  std::vector<alignment::PathPoint> path;  ///< Figure 12 samples.
  StageStats stats;
};

[[nodiscard]] Stage6Result run_stage6(seq::SequenceView s0, seq::SequenceView s1,
                                      const alignment::BinaryAlignment& binary,
                                      Index path_samples = 2048);

}  // namespace cudalign::core
