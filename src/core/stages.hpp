// The six CUDAlign 2.0 stages (paper §IV). Each stage is independently
// callable (tests exercise them in isolation); the pipeline driver
// (pipeline.hpp) chains them with shared statistics.
#pragma once

#include <algorithm>
#include <filesystem>
#include <optional>
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
/// observability run report (obs/report.hpp). All counters are always
/// collected — they are tallied on the calling thread after each engine run,
/// cheap enough to never gate.
struct StageStats {
  double seconds = 0;
  WideScore cells = 0;       ///< DP cells processed (the paper's Cells_k).
  Index crosspoints = 0;     ///< |L_k| after the stage.
  Index blocks_used = 0;     ///< Max B_k actually used (after min-size fits).
  std::size_t ram_bytes = 0; ///< Peak engine bus memory ("VRAM_k").
  Index tiles = 0;           ///< Engine tiles dispatched across all runs.
  Index diagonals = 0;       ///< External diagonals executed across all runs.
  /// Dataflow scheduler counters (engine RunStats semantics; 0 under
  /// lockstep): tiles run by a participant other than the one that made them
  /// ready, and waits on an empty ready queue, summed over runs.
  Index tiles_stolen = 0;
  Index starvation_waits = 0;
  /// Wavefront bus traffic (engine RunStats semantics, summed over runs).
  Index hbus_reads = 0, hbus_writes = 0;
  Index vbus_reads = 0, vbus_writes = 0;
  std::int64_t hbus_bytes = 0, vbus_bytes = 0;
  /// SRA traffic attributed to this stage (special rows or columns).
  Index sra_rows_flushed = 0, sra_rows_read = 0;
  std::int64_t sra_bytes_flushed = 0, sra_bytes_read = 0;
  /// Flush-pipeline accounting (sra/async_writer.hpp). `sra_rows_acked`
  /// counts durably acknowledged rows — equal to `sra_rows_flushed` at
  /// completion (the run-report validator enforces it).
  /// `sra_flush_wait_seconds` is the time spent inside the flush hook at
  /// strip retirement: the row copy plus queue backpressure (engine RunStats
  /// `special_row_wait_seconds`; under dataflow, compute time lost on the
  /// retiring participant while the others keep computing).
  /// `sra_writer_busy_seconds` is the writer thread's time in put() + ack.
  Index sra_rows_acked = 0;
  std::size_t sra_flush_queue_peak = 0;
  double sra_flush_wait_seconds = 0;
  double sra_writer_busy_seconds = 0;
  /// Tiles/cells per kernel variant, accumulated over the stage's engine
  /// runs (engine/kernel_registry.hpp).
  std::array<engine::KernelTally, engine::kKernelIdCount> kernels{};

  /// The paper's throughput metric (§V-A) at giga scale.
  [[nodiscard]] double gcups() const noexcept {
    return seconds > 0 ? static_cast<double>(cells) / seconds / 1e9 : 0;
  }

  /// Folds one engine run's per-variant tallies into this stage's.
  void add_kernels(const engine::RunStats& run) {
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      kernels[k].tiles += run.kernels[k].tiles;
      kernels[k].cells += run.kernels[k].cells;
    }
  }

  /// Folds one complete engine run into this stage: cells, tiles, diagonals,
  /// bus traffic and kernel tallies accumulate; blocks and bus memory keep
  /// their high-water marks.
  void add_run(const engine::RunStats& run) {
    cells += run.cells;
    tiles += run.tiles;
    diagonals += run.diagonals;
    tiles_stolen += run.tiles_stolen;
    starvation_waits += run.starvation_waits;
    hbus_reads += run.hbus_reads;
    hbus_writes += run.hbus_writes;
    vbus_reads += run.vbus_reads;
    vbus_writes += run.vbus_writes;
    hbus_bytes += run.hbus_bytes;
    vbus_bytes += run.vbus_bytes;
    sra_flush_wait_seconds += run.special_row_wait_seconds;
    blocks_used = std::max(blocks_used, run.blocks_used);
    ram_bytes = std::max(ram_bytes, run.bus_bytes);
    add_kernels(run);
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
  bool block_pruning = false;
  /// Tile-grid executor for the stage-1 wavefront (engine/executor.hpp).
  /// Both executors support every hook; stages 2+ keep the default
  /// (lockstep) engine schedule for their short, tap-driven runs.
  engine::ExecutorKind executor = engine::ExecutorKind::kLockstep;
  /// Flush special rows to `rows_area` (nullptr disables; Table IV's
  /// "No Flush" column).
  sra::SpecialRowsArea* rows_area = nullptr;
  /// Resume (DESIGN.md "Checkpoint & resume"): start the wavefront at vertex
  /// row `resume_row` (a flush boundary; 0 = fresh run) with `resume_hbus` —
  /// the restored special row at that boundary, n+1 (H, F) cells — and
  /// `resume_best`, the checkpointed best-so-far. Strip numbering stays
  /// global, so flushes of the resumed run land on the same rows.
  Index resume_row = 0;
  std::span<const engine::BusCell> resume_hbus;
  dp::LocalBest resume_best;
  /// Checkpoint hand-off: invoked right after each special row is durable in
  /// `rows_area`, with the row, the rows saved *by this run* and the merged
  /// best-so-far covering every cell up to that row. Special rows are written
  /// by a dedicated SRA writer thread (sra/async_writer.hpp; DESIGN.md
  /// "Stage-1 I/O overlap"), so this runs on that thread, in ascending-row
  /// order, strictly after its row's CRC'd write (+ fsync). Stage 1 drains
  /// the writer before returning, handing everything the callback touched
  /// back to the caller. The pipeline turns each call into a manifest save.
  std::function<void(Index row, Index rows_saved, const dp::LocalBest& best)> on_checkpoint;
  /// Liveness: fraction of Stage-1 cells completed (long chromosome runs).
  std::function<void(double fraction)> progress;
  /// Opt-in bus hand-off verification (engine/executor.hpp Hooks::bus_audit).
  check::BusAuditor* bus_audit = nullptr;
  /// Opt-in span telemetry (obs/telemetry.hpp): Stage 1 forwards it into the
  /// engine, which records one span per external-diagonal bucket. Calling
  /// thread only.
  obs::Telemetry* telemetry = nullptr;
  ThreadPool* pool = nullptr;
};

struct Stage1Result {
  Crosspoint end_point;          ///< Best score and its position (type 0).
  WideScore pruned_cells = 0;    ///< Cells skipped by block pruning.
  Index special_rows_saved = 0;
  Index flush_interval = 0;      ///< Strips between flushes (0 = no flushing).
  StageStats stats;
};

[[nodiscard]] Stage1Result run_stage1(seq::SequenceView s0, seq::SequenceView s1,
                                      const Stage1Config& config);

// ---------------------------------------------------------------------------
// Stage 2 — partial traceback (paper §IV-C): reverse semi-global execution
// with goal-based matching and orthogonal execution; finds the crosspoints on
// the stage-1 special rows and the alignment start point, saving special
// columns for Stage 3.
// ---------------------------------------------------------------------------

struct Stage2Config {
  scoring::Scheme scheme;
  engine::GridSpec grid = engine::GridSpec::stage23_defaults();
  sra::SpecialRowsArea* rows_area = nullptr;  ///< Stage-1 rows (required).
  sra::SpecialRowsArea* cols_area = nullptr;  ///< Sink for special columns (optional).
  check::BusAuditor* bus_audit = nullptr;
  /// Opt-in span telemetry: the traceback iterations (one per partition) in
  /// at most engine::kDiagonalBuckets spans, "iterations a-b".
  obs::Telemetry* telemetry = nullptr;
  ThreadPool* pool = nullptr;
};

struct Stage2Result {
  CrosspointList crosspoints;  ///< L_2: start point ... end point.
  Index special_cols_saved = 0;
  StageStats stats;
};

[[nodiscard]] Stage2Result run_stage2(seq::SequenceView s0, seq::SequenceView s1,
                                      const Crosspoint& end_point, const Stage2Config& config);

// ---------------------------------------------------------------------------
// Stage 3 — splitting partitions (paper §IV-D): forward execution inside each
// partition, matching the stage-2 special columns.
// ---------------------------------------------------------------------------

struct Stage3Config {
  scoring::Scheme scheme;
  engine::GridSpec grid = engine::GridSpec::stage23_defaults();
  sra::SpecialRowsArea* cols_area = nullptr;  ///< Stage-2 columns (required).
  check::BusAuditor* bus_audit = nullptr;
  /// Opt-in span telemetry: column gather vs. partition-split phases only
  /// (partitions run on pool workers, so no per-partition engine spans).
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
// binary representation; render text, statistics and the Figure-12 path dump.
// ---------------------------------------------------------------------------

struct Stage6Result {
  alignment::Alignment alignment;       ///< Reconstructed from the binary form.
  alignment::Stats composition;         ///< Table X.
  std::vector<alignment::PathPoint> path;  ///< Figure 12 samples.
  StageStats stats;
};

[[nodiscard]] Stage6Result run_stage6(seq::SequenceView s0, seq::SequenceView s1,
                                      const alignment::BinaryAlignment& binary,
                                      const scoring::Scheme& scheme, Index path_samples = 2048);

}  // namespace cudalign::core
