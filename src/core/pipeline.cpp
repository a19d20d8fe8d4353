#include "core/pipeline.hpp"

#include <algorithm>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/io_util.hpp"
#include "core/checkpoint.hpp"
#include "engine/kernel_registry.hpp"
#include "obs/telemetry.hpp"

namespace cudalign::core {

namespace {

/// CUDALIGN_CHECKPOINT_CRASH_AFTER=N: raise SIGKILL after the Nth durable
/// stage-1 special row — whole-process crash realism for the CLI smoke test
/// (0 / unset = off). Any other value exits with status 2, like an unknown
/// CUDALIGN_KERNEL, rather than silently letting the run complete.
Index env_kill_after_rows() {
  const char* env = std::getenv("CUDALIGN_CHECKPOINT_CRASH_AFTER");
  if (env == nullptr || *env == '\0') return 0;
  Index value = 0;
  const char* end = env + std::strlen(env);
  const auto [ptr, ec] = std::from_chars(env, end, value);
  if (ec != std::errc{} || ptr != end || value < 0) {
    std::fprintf(stderr,
                 "cudalign: CUDALIGN_CHECKPOINT_CRASH_AFTER must be a non-negative integer, "
                 "got \"%s\"\n",
                 env);
    std::exit(2);
  }
  return value;
}

}  // namespace

obs::Json options_json(const PipelineOptions& options) {
  const auto grid = [](const engine::GridSpec& g) {
    return obs::Json::object()
        .set("blocks", g.blocks)
        .set("threads", g.threads)
        .set("alpha", g.alpha)
        .set("min_chunk_cols", g.min_chunk_cols);
  };
  const engine::KernelVariant* pin = engine::kernel_override();
  return obs::Json::object()
      .set("scheme", obs::Json::object()
                         .set("match", options.scheme.match)
                         .set("mismatch", options.scheme.mismatch)
                         .set("gap_first", options.scheme.gap_first)
                         .set("gap_ext", options.scheme.gap_ext))
      .set("sra_rows_budget", options.sra_rows_budget)
      .set("sra_cols_budget", options.sra_cols_budget)
      .set("grid_stage1", grid(options.grid_stage1))
      .set("grid_stage23", grid(options.grid_stage23))
      .set("max_partition_size", options.max_partition_size)
      .set("block_pruning", options.block_pruning)
      .set("save_special_columns", options.save_special_columns)
      .set("kernel", pin != nullptr ? pin->name : "");
}

PipelineResult align_pipeline(const seq::Sequence& s0, const seq::Sequence& s1,
                              const PipelineOptions& options) {
  options.scheme.validate();
  PipelineResult result;
  const seq::SequenceView v0 = s0.bases();
  const seq::SequenceView v1 = s1.bases();
  const Index m = static_cast<Index>(v0.size());
  const Index n = static_cast<Index>(v1.size());

  obs::Telemetry* telemetry = options.telemetry;
  obs::ScopedSpan pipeline_span(telemetry, "pipeline");

  const bool checkpointed = !options.checkpoint_dir.empty();
  CUDALIGN_CHECK(!options.resume || checkpointed,
                 "resume requires a checkpoint directory (PipelineOptions::checkpoint_dir)");
  const Index kill_after = checkpointed ? env_kill_after_rows() : 0;

  // SRA setup. A temp dir keeps benchmark/test runs self-cleaning; an
  // explicit workdir lets users keep the special rows for inspection; a
  // checkpoint directory additionally makes every row durable (fsync'd)
  // before it is referenced.
  std::optional<TempDir> temp;
  std::filesystem::path dir = checkpointed ? options.checkpoint_dir : options.workdir;
  if (dir.empty()) {
    temp.emplace("cudalign-sra");
    dir = temp->path();
  }
  // Checkpoint manifest: load-and-validate on resume, refuse to trample an
  // existing checkpoint otherwise.
  std::optional<CheckpointManifest> manifest;
  CheckpointState state;
  bool resuming = false;
  if (checkpointed) {
    manifest.emplace(options.checkpoint_dir);
    state.envelope = CheckpointEnvelope{sequence_digest(v0), sequence_digest(v1), m, n,
                                        options_json(options)};
    if (options.resume) {
      CUDALIGN_CHECK(manifest->exists(), "cannot resume: no checkpoint manifest at ",
                     manifest->path().string());
      CheckpointState loaded = manifest->load();
      const std::vector<std::string> diffs = loaded.envelope.mismatches(state.envelope);
      if (!diffs.empty()) {
        std::string message = "cannot resume: the checkpoint at " +
                              options.checkpoint_dir.string() +
                              " was written for a different problem or configuration:";
        for (const std::string& d : diffs) message += "\n  - " + d;
        throw Error(message);
      }
      CUDALIGN_CHECK(loaded.stage != CheckpointStage::kDone,
                     "cannot resume: the checkpointed run already completed — its results "
                     "stand; remove ", options.checkpoint_dir.string(), " to start over");
      state = std::move(loaded);
      resuming = true;
    } else {
      CUDALIGN_CHECK(!manifest->exists(), "checkpoint directory ",
                     options.checkpoint_dir.string(),
                     " already holds a checkpoint; resume it or remove the directory — "
                     "checkpoints are never silently recomputed over");
    }
  }
  const CheckpointStage start_stage = resuming ? state.stage : CheckpointStage::kStage1;
  result.resume.enabled = checkpointed;
  result.resume.resumed = resuming;
  if (resuming) result.resume.resumed_stage = static_cast<int>(start_stage);

  // A reused working directory starts fresh unless this is a resume: its old
  // rows go before the stores open, so neither their budget nor their format
  // version is checked against this run's. A fresh checkpointed run saves
  // the manifest once before Stage 1, so a crash before the first special
  // row resumes from row 0.
  const sra::Durability durability =
      checkpointed ? sra::Durability::kDurable : sra::Durability::kFast;
  if (!resuming) {
    sra::SpecialRowsArea::remove_rows(dir / "rows", durability);
    sra::SpecialRowsArea::remove_rows(dir / "cols", durability);
  }
  sra::SpecialRowsArea rows_area(dir / "rows", options.sra_rows_budget, durability);
  sra::SpecialRowsArea cols_area(dir / "cols", options.sra_cols_budget, durability);
  if (!resuming && manifest) manifest->save(state);
  // Special columns are only durable once stage 2 has fully completed (the
  // kStage3 manifest update); before that, any on-disk columns are partial.
  if (resuming && start_stage <= CheckpointStage::kStage2) cols_area.drop_all();

  const auto finalize_resume = [&] {
    if (manifest) {
      result.resume.checkpoint_bytes_written = manifest->bytes_written();
      result.resume.checkpoint_bytes_read = manifest->bytes_read();
      result.resume.checkpoint_updates = manifest->updates();
    }
  };

  // Stage 1 — best score, end point, special rows.
  if (start_stage == CheckpointStage::kStage1) {
    Stage1Config c1;
    c1.scheme = options.scheme;
    c1.grid = options.grid_stage1;
    c1.rows_area = &rows_area;
    c1.block_pruning = options.block_pruning;
    c1.bus_audit = options.bus_audit;
    c1.resume = resuming;
    // Fault injection: both forms fire right after the Nth special row of
    // this run is durable, so the state left behind is exactly a real
    // crash's. The ack — and therefore the injected SIGKILL / throw — runs
    // on the SRA writer thread; the throw form is rethrown from run_stage1's
    // drain of the writer.
    Index durable_rows = 0;
    if (kill_after > 0 || options.checkpoint_crash_after_flushes > 0) {
      c1.on_checkpoint = [&] {
        ++durable_rows;
        if (kill_after > 0 && durable_rows >= kill_after) {
          std::raise(SIGKILL);  // A real crash: no unwinding, no flushing.
        }
        if (options.checkpoint_crash_after_flushes > 0 &&
            durable_rows >= options.checkpoint_crash_after_flushes) {
          throw Error("fault injection: crashed after durable stage-1 special row #" +
                      std::to_string(durable_rows));
        }
      };
    }
    if (options.progress) {
      c1.progress = [&](double fraction) { options.progress(1, fraction); };
    }
    c1.telemetry = telemetry;
    c1.pool = options.pool;
    Stage1Result st1;
    {
      obs::ScopedSpan span(telemetry, "stage 1 (score)");
      st1 = run_stage1(v0, v1, c1);
    }
    if (options.progress) options.progress(1, 1.0);
    result.stages[0] = st1.stats;
    result.end_point = st1.end_point;
    result.best_score = st1.end_point.score;
    result.special_rows_saved = st1.rows_restored + st1.special_rows_saved;
    result.resume.resumed_from_row = st1.resumed_from_row;
    result.resume.cells_skipped = static_cast<WideScore>(st1.resumed_from_row) * n;
    result.resume.rows_restored = st1.rows_restored;
    result.flush_interval = st1.flush_interval;
    result.prune_floor = st1.prune_floor;
    result.prune_floor_seconds = st1.prune_floor_seconds;

    if (manifest) {
      // Stage boundary: stage 1's outputs are durable; later stages never
      // need to recompute it.
      state.stage1.special_rows_saved = result.special_rows_saved;
      state.stage1.flush_interval = st1.flush_interval;
      state.stage1.best_score = st1.end_point.score;
      state.stage1.best_i = st1.end_point.i;
      state.stage1.best_j = st1.end_point.j;
      state.end_point = st1.end_point;
      state.stage =
          st1.end_point.score == 0 ? CheckpointStage::kDone : CheckpointStage::kStage2;
      manifest->save(state);
    }
  } else {
    // Restored: stage 1 completed in a previous run.
    result.end_point = state.end_point;
    result.best_score = state.end_point.score;
    result.special_rows_saved = state.stage1.special_rows_saved;
    result.flush_interval = state.stage1.flush_interval;
    result.resume.cells_skipped = static_cast<WideScore>(m) * n;
    result.resume.rows_restored = state.stage1.special_rows_saved;
  }
  result.crosspoint_counts[0] = 1;

  if (result.best_score == 0) {
    // Empty optimal alignment: nothing to trace back.
    result.empty = true;
    result.start_point = result.end_point;
    result.alignment.score = 0;
    result.binary = alignment::to_binary(result.alignment, options.scheme);
    finalize_resume();
    return result;
  }

  // Stage 2 — crosspoints on special rows + start point; special columns.
  CrosspointList l2;
  if (start_stage <= CheckpointStage::kStage2) {
    Stage2Config c2;
    c2.scheme = options.scheme;
    c2.grid = options.grid_stage23;
    c2.rows_area = &rows_area;
    c2.cols_area = options.save_special_columns ? &cols_area : nullptr;
    c2.block_pruning = options.block_pruning;
    c2.bus_audit = options.bus_audit;
    c2.telemetry = telemetry;
    c2.pool = options.pool;
    Stage2Result st2;
    {
      obs::ScopedSpan span(telemetry, "stage 2 (partial traceback)");
      st2 = run_stage2(v0, v1, result.end_point, c2);
    }
    if (options.progress) options.progress(2, 1.0);
    result.stages[1] = st2.stats;
    result.special_cols_saved = st2.special_cols_saved;
    result.stage2_speculation = st2.speculation;
    l2 = std::move(st2.crosspoints);
    if (manifest) {
      state.stage = CheckpointStage::kStage3;
      state.l2 = l2;
      state.special_cols_saved = st2.special_cols_saved;
      manifest->save(state);
    }
  } else {
    l2 = state.l2;
    result.special_cols_saved = state.special_cols_saved;
  }
  result.start_point = l2.front();
  result.crosspoint_counts[1] = static_cast<Index>(l2.size());

  // Stage 3 — more crosspoints over the special columns.
  CrosspointList l3;
  if (start_stage <= CheckpointStage::kStage3) {
    l3 = l2;
    if (options.save_special_columns && result.special_cols_saved > 0) {
      Stage3Config c3;
      c3.scheme = options.scheme;
      c3.grid = options.grid_stage23;
      c3.cols_area = &cols_area;
      c3.block_pruning = options.block_pruning;
      c3.bus_audit = options.bus_audit;
      c3.telemetry = telemetry;
      c3.pool = options.pool;
      Stage3Result st3;
      {
        obs::ScopedSpan span(telemetry, "stage 3 (split partitions)");
        st3 = run_stage3(v0, v1, l2, c3);
      }
      if (options.progress) options.progress(3, 1.0);
      result.stages[2] = st3.stats;
      l3 = std::move(st3.crosspoints);
    }
    if (manifest) {
      state.stage = CheckpointStage::kStage4;
      state.l3 = l3;
      manifest->save(state);
    }
  } else {
    l3 = state.l3;
  }
  result.crosspoint_counts[2] = static_cast<Index>(l3.size());
  for (const Partition& p : partitions_of(l3)) {
    result.h_max_after_stage3 = std::max(result.h_max_after_stage3, p.height());
    result.w_max_after_stage3 = std::max(result.w_max_after_stage3, p.width());
  }
  result.sra_peak_bytes = rows_area.peak_bytes() + cols_area.peak_bytes();
  result.sra_stored_peak_bytes = rows_area.stored_peak_bytes() + cols_area.stored_peak_bytes();

  // Stage 4 — balanced splitting down to the maximum partition size.
  CrosspointList l4;
  if (start_stage <= CheckpointStage::kStage4) {
    Stage4Config c4;
    c4.scheme = options.scheme;
    c4.max_partition_size = options.max_partition_size;
    c4.block_pruning = options.block_pruning;
    c4.telemetry = telemetry;
    c4.pool = options.pool;
    Stage4Result st4;
    {
      obs::ScopedSpan span(telemetry, "stage 4 (Myers-Miller)");
      st4 = run_stage4(v0, v1, l3, c4);
    }
    if (options.progress) options.progress(4, 1.0);
    result.stages[3] = st4.stats;
    result.stage4_iterations = std::move(st4.iterations);
    l4 = std::move(st4.crosspoints);
    if (manifest) {
      state.stage = CheckpointStage::kStage5;
      state.l4 = l4;
      manifest->save(state);
    }
  } else {
    l4 = state.l4;
  }
  result.crosspoint_counts[3] = static_cast<Index>(l4.size());

  // Stage 5 — full alignment + binary representation.
  Stage5Config c5;
  c5.scheme = options.scheme;
  c5.pool = options.pool;
  Stage5Result st5;
  {
    obs::ScopedSpan span(telemetry, "stage 5 (full alignment)");
    st5 = run_stage5(v0, v1, l4, c5);
  }
  if (options.progress) options.progress(5, 1.0);
  result.stages[4] = st5.stats;
  result.stage5_partitions = st5.partitions;
  result.stage5_h_max = st5.h_max;
  result.stage5_w_max = st5.w_max;
  result.alignment = std::move(st5.alignment);
  result.binary = std::move(st5.binary);

  // Stage 6 — visualization.
  {
    obs::ScopedSpan span(telemetry, "stage 6 (visualization)");
    Stage6Result st6 = run_stage6(v0, v1, result.binary);
    result.stages[5] = st6.stats;
    result.visualization = std::move(st6);
  }

  // Stages 5 and 6 are one resumable segment (stage 6 is derived data): the
  // checkpoint completes only after both.
  if (manifest) {
    state.stage = CheckpointStage::kDone;
    manifest->save(state);
  }
  finalize_resume();
  return result;
}

}  // namespace cudalign::core
