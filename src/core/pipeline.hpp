// The CUDAlign 2.0 pipeline driver (paper §IV): chains the six stages,
// manages the SRA, and collects the statistics behind Tables IV-IX.
#pragma once

#include <array>
#include <filesystem>
#include <memory>
#include <optional>

#include "core/stages.hpp"
#include "obs/json.hpp"

namespace cudalign::core {

struct PipelineOptions {
  scoring::Scheme scheme = scoring::Scheme::paper_defaults();

  /// SRA budget in bytes for special rows, and separately for special
  /// columns. The paper's chromosome run uses 10-50 GB for rows; scaled-down
  /// problems use proportionally smaller budgets.
  std::int64_t sra_rows_budget = 64 << 20;
  std::int64_t sra_cols_budget = 64 << 20;

  /// Working directory for SRA files; empty = a fresh temp dir per run.
  std::filesystem::path workdir;

  /// Checkpoint/resume (DESIGN.md "Checkpoint & resume"): when set, the SRA
  /// stores move under this directory in durable mode and the pipeline keeps
  /// an atomically-updated manifest there, saved before Stage 1 and at every
  /// stage boundary. Inside Stage 1 every durable special row carries its
  /// own resume state. A killed run re-invoked with `resume = true`
  /// continues from the last durable point instead of recomputing from
  /// scratch. Takes precedence over `workdir` for SRA placement.
  std::filesystem::path checkpoint_dir;
  /// Continue the checkpoint in `checkpoint_dir`. Refused (cudalign::Error,
  /// naming every differing field) when the manifest's envelope — the
  /// sequences and options_json below — does not match this invocation, when
  /// no manifest exists, or when the run already completed.
  /// Without `resume`, a fresh run refuses to start over an existing
  /// manifest: checkpoints are never silently recomputed over.
  bool resume = false;
  /// Fault injection (tests): throw cudalign::Error right after the Nth
  /// durable stage-1 special row of this run (0 = off). The environment
  /// variable CUDALIGN_CHECKPOINT_CRASH_AFTER does the same but raises
  /// SIGKILL — the CLI smoke test's kill switch for whole-process crash
  /// realism; a value that is not a non-negative integer exits with status 2.
  Index checkpoint_crash_after_flushes = 0;

  engine::GridSpec grid_stage1 = engine::GridSpec::stage1_defaults();
  engine::GridSpec grid_stage23 = engine::GridSpec::stage23_defaults();

  Index max_partition_size = 16;

  /// Block pruning (engine/executor.hpp): exact, and on by default. Stage 1
  /// prunes against the best score (its cells then fall short of m*n by
  /// stages[0].pruned_cells), Stages 2-4 against their goals (DESIGN.md
  /// "Goal pruning (Stages 2-4)"). Off computes every cell of every stage.
  bool block_pruning = true;
  /// Held only for e2ebench/traced.cpp:199, which reads it; the pipeline
  /// never does, and it is not in options_json. It goes together with that
  /// line.
  engine::ExecutorKind executor = engine::ExecutorKind::kDataflow;
  bool save_special_columns = true; ///< Off = skip Stage 3 (Stage 4 absorbs it).

  /// Progress callback: stage (1-6) and completed fraction of that stage's
  /// cells. Invoked at each strip retirement of Stage 1 (under dataflow
  /// possibly on a pool worker, one call at a time) and between stages
  /// otherwise — chromosome-scale runs take hours (18.5 h in the paper) and
  /// need liveness reporting.
  std::function<void(int stage, double fraction)> progress;

  /// Opt-in bus hand-off auditing for every engine run of Stages 1-3
  /// (check/bus_audit.hpp; the CLI's --audit-bus). Stage 4's runs are not
  /// audited. The caller inspects the auditor after the pipeline returns.
  check::BusAuditor* bus_audit = nullptr;

  /// Opt-in span telemetry (obs/telemetry.hpp; the CLI's --report): the
  /// pipeline records a "pipeline" span with one child per stage, Stage 1
  /// bucketing its retired strips below that. Calling thread only; the
  /// caller reads the tree after the pipeline returns (obs/report.hpp turns
  /// it plus this result into the versioned JSON run report).
  obs::Telemetry* telemetry = nullptr;

  ThreadPool* pool = nullptr;
};

/// What resume actually did — the run report's `resume` block.
struct ResumeInfo {
  bool enabled = false;         ///< A checkpoint directory was configured.
  bool resumed = false;         ///< Progress was restored from a manifest.
  int resumed_stage = 0;        ///< Stage work restarted in (1-6; 0 = fresh).
  Index resumed_from_row = 0;   ///< Stage-1 restart row (0 unless mid-stage-1).
  /// Stage-1 DP cells not recomputed: resumed_from_row * n mid-stage-1, m*n
  /// when stage 1 was already complete.
  WideScore cells_skipped = 0;
  /// Special rows restored from the checkpointed SRA instead of reflushed.
  Index rows_restored = 0;
  /// Manifest I/O (SRA traffic is accounted in the per-stage stats).
  std::int64_t checkpoint_bytes_written = 0;
  std::int64_t checkpoint_bytes_read = 0;
  Index checkpoint_updates = 0;
};

struct PipelineResult {
  /// Empty optimal alignment (best score 0) short-circuits after Stage 1.
  bool empty = false;

  ResumeInfo resume;

  Crosspoint end_point;
  Crosspoint start_point;
  Score best_score = 0;

  alignment::Alignment alignment;
  alignment::BinaryAlignment binary;
  std::optional<Stage6Result> visualization;

  /// Per-stage statistics, index 0 = Stage 1 ... index 5 = Stage 6.
  std::array<StageStats, 6> stages{};
  std::vector<Stage4Iteration> stage4_iterations;

  /// |L_k| after stages 1..4 (Table VIII).
  std::array<Index, 4> crosspoint_counts{};
  /// Largest partition dimensions after Stage 3 (Table VIII's Hmax/Wmax).
  Index h_max_after_stage3 = 0;
  Index w_max_after_stage3 = 0;

  Index special_rows_saved = 0;
  Index special_cols_saved = 0;
  /// Stage 2's speculative waves (zeros when Stage 2 did not run here).
  Stage2Speculation stage2_speculation;
  Index flush_interval = 0;
  /// Stage 1's pruning seed and the time its pass took (Stage1Result; 0
  /// when Stage 1 did not prune or was restored from a checkpoint).
  Score prune_floor = 0;
  double prune_floor_seconds = 0;
  std::int64_t sra_peak_bytes = 0;
  /// High-water mark of the special-row and -column cells actually on disk
  /// (the segments the SRA stored); at most sra_peak_bytes.
  std::int64_t sra_stored_peak_bytes = 0;

  /// Stage-5 partition statistics (run report).
  Index stage5_partitions = 0;
  Index stage5_h_max = 0;
  Index stage5_w_max = 0;

  [[nodiscard]] double total_seconds() const noexcept {
    double total = 0;
    for (const auto& s : stages) total += s.seconds;
    return total;
  }
};

/// Every option that can change the output, as JSON: the scheme, both SRA
/// budgets, both grids, max_partition_size, block_pruning,
/// save_special_columns and the effective kernel pin (`kernel`, "" =
/// automatic selection). The one serialization of the run configuration:
/// the checkpoint envelope stores it and the run report's `options` block is
/// it.
[[nodiscard]] obs::Json options_json(const PipelineOptions& options);

/// Runs all stages — always flushing special rows, splitting Stage-4
/// partitions balanced and orthogonally, and rendering Stage 6; the stage
/// ablations (Tables IV and IX, Figure 10) run through Stage1Config and
/// Stage4Config. S0 is the vertical sequence (rows, size m), S1 horizontal
/// (columns, size n) — the paper's convention.
[[nodiscard]] PipelineResult align_pipeline(const seq::Sequence& s0, const seq::Sequence& s1,
                                            const PipelineOptions& options = {});

}  // namespace cudalign::core
