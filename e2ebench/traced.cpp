// Traced run: one align_pipeline call recording its own stage spans
// (PipelineOptions::telemetry), then one probe per layer that calls the
// layer's public functions, each inside a span of the same recorder.
#include <algorithm>

#include "common/timer.hpp"
#include "core/checkpoint.hpp"
#include "e2e.hpp"
#include "engine/kernel_registry.hpp"

namespace cudalign::e2e {

namespace {

namespace fs = std::filesystem;

/// Runs `body` inside a span named `name` and returns its wall time.
template <typename Body>
double timed(obs::Telemetry& telemetry, std::string name, Body&& body) {
  const obs::ScopedSpan span(&telemetry, std::move(name));
  const Timer timer;
  body();
  return timer.seconds();
}

/// The first child of `parent` whose name starts with `prefix`, if any.
const obs::Span* find_child(const obs::Span& parent, std::string_view prefix) {
  for (const obs::Span& child : parent.children) {
    if (child.name.starts_with(prefix)) return &child;
  }
  return nullptr;
}

/// The span tree as JSON, each span with its self time: its duration minus
/// the part its child spans cover (children run one after another).
obs::Json span_json(const obs::Span& span) {
  obs::Json node = obs::Json::object().set("name", span.name).set("seconds", span.seconds);
  double child_s = 0;
  obs::Json children = obs::Json::array();
  for (const obs::Span& child : span.children) {
    child_s += child.seconds;
    children.push(span_json(child));
  }
  node.set("self_s", span.seconds - child_s);
  if (!span.children.empty()) node.set("children", std::move(children));
  return node;
}

/// Single-thread throughput of one pinned kernel variant on one tile of the
/// workload's own sequences; 0 when the variant cannot run that tile.
double kernel_gcups(const engine::KernelVariant& variant, const engine::Recurrence& rec,
                    bool track_best, const Setup& setup, Index rows, Index cols,
                    double seconds) {
  rows = std::min<Index>(rows, setup.s0.size());
  cols = std::min<Index>(cols, setup.s1.size());
  std::vector<engine::BusCell> hbus0(static_cast<std::size_t>(cols) + 1);
  std::vector<engine::BusCell> vin(static_cast<std::size_t>(rows) + 1);
  std::vector<engine::BusCell> vout(vin.size());
  for (Index j = 0; j <= cols; ++j) hbus0[static_cast<std::size_t>(j)] = rec.top_boundary(j);
  for (Index i = 0; i <= rows; ++i) vin[static_cast<std::size_t>(i)] = rec.left_boundary(i);
  std::vector<engine::BusCell> hbus = hbus0;
  engine::TileJob job;
  job.r1 = rows;
  job.c1 = cols;
  job.a = setup.s0.bases();
  job.b = setup.s1.bases();
  job.recurrence = &rec;
  job.hbus = hbus;
  job.vbus_in = vin;
  job.vbus_out = vout;
  job.track_best = track_best;

  engine::TileScratch scratch;
  if (engine::run_tile(job, scratch, &variant).kernel != variant.id) return 0;
  long tiles = 0;
  double elapsed = 0;
  const Timer timer;
  do {
    hbus = hbus0;  // The tile updates its horizontal bus in place.
    (void)engine::run_tile(job, scratch, &variant);
    ++tiles;
    elapsed = timer.seconds();
  } while (elapsed < seconds);
  return static_cast<double>(rows) * static_cast<double>(cols) * static_cast<double>(tiles) /
         elapsed / 1e9;
}

double sum_cells(const std::array<engine::KernelTally, engine::kKernelIdCount>& kernels,
                 std::initializer_list<engine::KernelId> ids) {
  double cells = 0;
  for (const engine::KernelId id : ids) {
    cells += static_cast<double>(kernels[static_cast<std::size_t>(id)].cells);
  }
  return cells;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

RunOutcome run_traced(const RunConfig& config) {
  const Workload& w = *config.workload;
  RunOutcome out;
  obs::Telemetry telemetry;
  const Fasta fasta = write_inputs(w, config.seed, config.workdir / "inputs");
  Setup setup;
  timed(telemetry, "setup", [&] { repeat_setup(fasta, config.setup_reps, setup); });
  const seq::SequenceView v0 = setup.s0.bases();
  const seq::SequenceView v1 = setup.s1.bases();
  const Index m = static_cast<Index>(v0.size());
  const Index n = static_cast<Index>(v1.size());
  const double threads = static_cast<double>(setup.pool->worker_count() + 1);

  // Untraced calls for half the measurement time. Their median is the base
  // of trace.overhead_frac and their binary alignment the reference the
  // traced call must reproduce.
  RunConfig half = config;
  half.seconds = config.seconds / 2;
  half.min_reps = 1;
  CallSeries untraced;
  timed(telemetry, "untraced_calls", [&] { untraced = run_calls(half, fasta, setup, out); });
  if (untraced.seconds.empty()) return out;

  // The traced call: align_pipeline itself, recording its stage spans.
  ++out.attempted;
  TimedCall traced;
  try {
    traced = run_pipeline(w, setup, config.workdir, &telemetry);
    const std::string error =
        check_result(traced.result, setup, &*untraced.reference, config.expect_score);
    if (!error.empty()) {
      ++out.failed;
      out.fail("traced call: " + error);
    }
  } catch (const std::exception& e) {
    ++out.failed;
    out.fail(std::string("traced call threw: ") + e.what());
    return out;
  }
  const core::PipelineResult& r = traced.result;
  const std::array<core::StageStats, 6>& st = r.stages;
  const core::PipelineOptions options = pipeline_options(w, setup.pool.get(), {});

  // ---- core ----
  // Copied out: later spans may reallocate the recorder's child lists.
  const obs::Span* found = find_child(telemetry.root(), "pipeline");
  CUDALIGN_CHECK(found != nullptr, "align_pipeline recorded no pipeline span");
  const obs::Span pipeline = *found;
  std::array<double, 6> stage_s{};  // A stage the pipeline skipped reads 0.
  for (std::size_t k = 0; k < 6; ++k) {
    const obs::Span* stage = find_child(pipeline, "stage " + std::to_string(k + 1) + " ");
    stage_s[k] = stage != nullptr ? stage->seconds : 0;
    out.add("core.stage" + std::to_string(k + 1) + "_s", "s", stage_s[k]);
  }
  for (std::size_t k = 0; k < 3; ++k) {
    out.add("core.stage" + std::to_string(k + 1) + "_gcups", "GCUPS",
            ratio(static_cast<double>(st[k].cells), stage_s[k]) / 1e9);
  }
  double traceback_s = 0;
  for (std::size_t k = 1; k < 6; ++k) traceback_s += stage_s[k];
  out.add("core.traceback_frac", "fraction", ratio(traceback_s, pipeline.seconds));
  out.add("core.stage4_iterations", "count", static_cast<double>(r.stage4_iterations.size()));
  out.add("core.crosspoints_l4", "count", static_cast<double>(r.crosspoint_counts[3]));
  out.add("core.checkpoint_saves", "count", static_cast<double>(r.resume.checkpoint_updates));
  {
    // Per-save cost of the manifest a durable run rewrites after every
    // special-row flush: a Stage-1 checkpoint state of this workload, saved
    // again and again.
    core::CheckpointState state;
    state.envelope.s0_length = m;
    state.envelope.s1_length = n;
    state.stage1.special_rows_saved = r.special_rows_saved;
    state.stage1.flush_interval = r.flush_interval;
    state.stage1.best_score = r.best_score;
    state.stage1.best_i = r.end_point.i;
    state.stage1.best_j = r.end_point.j;
    const fs::path dir = config.workdir / "probe-checkpoint";
    fs::remove_all(dir);
    core::CheckpointManifest manifest(dir);
    std::vector<double> save_ms;
    timed(telemetry, "core.checkpoint_save_probe", [&] {
      const Timer total;
      while (save_ms.size() < 5 || (save_ms.size() < 64 && total.seconds() < 0.5)) {
        const Timer timer;
        manifest.save(state);
        save_ms.push_back(timer.seconds() * 1e3);
      }
    });
    fs::remove_all(dir);
    out.add_median("core.checkpoint_save_ms", "ms", save_ms);
  }

  // ---- engine ----
  engine::ProblemSpec spec;
  spec.a = v0;
  spec.b = v1;
  spec.recurrence = engine::Recurrence::local(options.scheme);
  spec.grid = options.grid_stage1;
  spec.executor = options.executor;
  engine::RunResult score_only;
  const double wavefront_s = timed(telemetry, "engine.wavefront", [&] {
    score_only = engine::run_wavefront(spec, engine::Hooks{}, setup.pool.get());
  });
  if (score_only.best.score != r.best_score) {
    out.fail("score-only wavefront best " + std::to_string(score_only.best.score) +
             " != pipeline best " + std::to_string(r.best_score));
  }
  out.add("engine.wavefront_s", "s", wavefront_s);
  out.add("engine.flush_overhead_s", "s", stage_s[0] - wavefront_s);

  // Single-thread kernel ceilings on the Stage-1 tile shape. striped8 only
  // admits thin strips (its int8 envelope bounds min(rows, width) matches),
  // so it runs on 64-row tiles of the same width.
  const engine::GridSpec fitted = engine::fit_to_width(options.grid_stage1, n);
  const Index tile_rows = options.grid_stage1.strip_rows();
  const Index tile_cols = (n + fitted.blocks - 1) / fitted.blocks;
  const engine::Recurrence local = engine::Recurrence::local(options.scheme);
  const engine::Recurrence global =
      engine::Recurrence::global_start(dp::CellState::kH, options.scheme);
  const double probe_s = std::clamp(config.seconds / 40, 0.05, 0.25);
  struct KernelProbe {
    const char* metric;
    engine::KernelId id;
    const engine::Recurrence* rec;
    Index rows;
  };
  const KernelProbe probes[] = {
      {"striped8", engine::KernelId::kStriped8LocalBest, &local, 64},
      {"striped16", engine::KernelId::kStriped16LocalBest, &local, tile_rows},
      {"v32", engine::KernelId::kVec32LocalBest, &local, tile_rows},
      {"scalar_global", engine::KernelId::kScalarGlobal, &global, tile_rows},
  };
  std::array<double, engine::kKernelIdCount> ceiling{};
  for (const KernelProbe& p : probes) {
    const engine::KernelVariant& variant = engine::kernel_info(p.id);
    double gcups = 0;
    timed(telemetry, std::string("engine.kernel.") + variant.name, [&] {
      gcups = kernel_gcups(variant, *p.rec, p.rec == &local, setup, p.rows, tile_cols, probe_s);
    });
    if (gcups <= 0) out.fail(std::string("kernel probe: ") + variant.name + " cannot run its tile");
    out.add(std::string("engine.kernel_1t_gcups.") + p.metric, "GCUPS", gcups);
    if (p.rows == tile_rows) ceiling[static_cast<std::size_t>(p.id)] = gcups;
  }
  // Stage-1 efficiency: achieved GCUPS over threads x the cell-weighted
  // single-thread ceiling of the variants Stage 1 actually ran.
  double cells = 0, ideal_s = 0;
  for (std::size_t k = 0; k < engine::kKernelIdCount; ++k) {
    const auto c = static_cast<double>(st[0].kernels[k].cells);
    if (c <= 0) continue;
    if (ceiling[k] <= 0) {
      const engine::KernelVariant& variant = engine::kernel_info(static_cast<engine::KernelId>(k));
      timed(telemetry, std::string("engine.kernel.") + variant.name, [&] {
        ceiling[k] = kernel_gcups(variant, local, true, setup, tile_rows, tile_cols, probe_s);
      });
    }
    if (ceiling[k] <= 0) continue;
    cells += c;
    ideal_s += c / (ceiling[k] * 1e9);
  }
  const double stage1_gcups = ratio(static_cast<double>(st[0].cells), stage_s[0]) / 1e9;
  out.add("engine.stage1_efficiency", "fraction",
          ratio(stage1_gcups, threads * ratio(cells, ideal_s) / 1e9));

  using engine::KernelId;
  const double s1_cells = static_cast<double>(st[0].cells);
  out.add("engine.v32_cell_frac", "fraction",
          ratio(sum_cells(st[0].kernels, {KernelId::kVec32Local, KernelId::kVec32LocalBest}),
                s1_cells));
  out.add("engine.narrow_cell_frac", "fraction",
          ratio(sum_cells(st[0].kernels,
                          {KernelId::kStriped8Local, KernelId::kStriped8LocalBest,
                           KernelId::kStriped16Local, KernelId::kStriped16LocalBest,
                           KernelId::kVec16Local, KernelId::kVec16LocalBest}),
                s1_cells));
  double scalar_s23 = 0, cells_s23 = 0;
  for (std::size_t s = 1; s <= 2; ++s) {
    cells_s23 += static_cast<double>(st[s].cells);
    for (std::size_t k = 0; k <= static_cast<std::size_t>(KernelId::kScalarGlobalTapsFind); ++k) {
      scalar_s23 += static_cast<double>(st[s].kernels[k].cells);
    }
  }
  out.add("engine.scalar_cell_frac_s23", "fraction", ratio(scalar_s23, cells_s23));
  double hbus = 0, vbus = 0, tiles = 0, stolen = 0, starved = 0;
  for (const core::StageStats& s : st) {
    hbus += static_cast<double>(s.hbus_bytes);
    vbus += static_cast<double>(s.vbus_bytes);
    tiles += static_cast<double>(s.tiles);
    stolen += static_cast<double>(s.tiles_stolen);
    starved += static_cast<double>(s.starvation_waits);
  }
  out.add("engine.hbus_mb", "MB", hbus / 1e6);
  out.add("engine.vbus_mb", "MB", vbus / 1e6);
  out.add("engine.tiles", "count", tiles);
  out.add("engine.tiles_stolen", "count", stolen);
  out.add("engine.starvation_waits", "count", starved);

  // ---- sra ----
  double rows_flushed = 0, mb_flushed = 0, mb_read = 0;
  for (const core::StageStats& s : st) {
    rows_flushed += static_cast<double>(s.sra_rows_flushed);
    mb_flushed += static_cast<double>(s.sra_bytes_flushed) / 1e6;
    mb_read += static_cast<double>(s.sra_bytes_read) / 1e6;
  }
  out.add("sra.rows_flushed", "count", rows_flushed);
  out.add("sra.mb_flushed", "MB", mb_flushed);
  out.add("sra.mb_read", "MB", mb_read);
  out.add("sra.flush_wait_s", "s", st[0].sra_flush_wait_seconds);
  out.add("sra.writer_busy_s", "s", st[0].sra_writer_busy_seconds);
  {
    // Replays Stage 1's special rows (count and width) through put and get,
    // capped at 64 MiB per pass so the probe stays short.
    const std::int64_t row_bytes = 8 * (n + 1);
    const std::int64_t replay = std::clamp<std::int64_t>(
        st[0].sra_rows_flushed, 1, std::max<std::int64_t>(1, (64 << 20) / row_bytes));
    std::vector<engine::BusCell> cells_row(static_cast<std::size_t>(n) + 1);
    for (std::size_t j = 0; j < cells_row.size(); ++j) {
      cells_row[j] = engine::BusCell{static_cast<Score>(j % 1000), static_cast<Score>(j % 7) - 10};
    }
    const double mb = static_cast<double>(replay * row_bytes) / 1e6;
    for (const bool durable : {false, true}) {
      const fs::path dir = config.workdir / "probe-sra";
      fs::remove_all(dir);
      sra::SpecialRowsArea area(dir, 2 * (replay + 1) * row_bytes,
                                durable ? sra::Durability::kDurable : sra::Durability::kFast);
      const double put_s = timed(telemetry, durable ? "sra.put_durable" : "sra.put", [&] {
        for (std::int64_t k = 0; k < replay; ++k) {
          (void)area.put(sra::RowKey{k * 256, 0, n, 1}, cells_row);
        }
      });
      out.add(durable ? "sra.put_durable_mb_s" : "sra.put_mb_s", "MB/s", mb / put_s);
      if (!durable) {
        const double get_s = timed(telemetry, "sra.get", [&] {
          for (std::size_t k = 0; k < area.size(); ++k) {
            if (area.get(k).size() != cells_row.size()) out.fail("sra probe: short row");
          }
        });
        out.add("sra.get_mb_s", "MB/s", mb / get_s);
      }
      fs::remove_all(dir);
    }
  }

  // ---- seq, common, trace ----
  out.add_median("seq.fasta_read_s", "s", setup.fasta_s);
  out.add_median("common.pool_start_s", "s", setup.pool_s);
  const double untraced_median = quartiles(untraced.seconds).median;
  out.add("trace.overhead_frac", "fraction",
          (traced.seconds - untraced_median) / untraced_median);

  out.detail.set("m", m)
      .set("n", n)
      .set("threads", threads)
      .set("untraced_total_s", untraced_median)
      .set("untraced_calls", static_cast<std::int64_t>(untraced.seconds.size()))
      .set("stage1_kernels", engine::kernel_usage_summary(st[0].kernels))
      .set("stage2_kernels", engine::kernel_usage_summary(st[1].kernels))
      .set("stage3_kernels", engine::kernel_usage_summary(st[2].kernels))
      .set("spans", span_json(telemetry.finish()));
  return out;
}

}  // namespace cudalign::e2e
