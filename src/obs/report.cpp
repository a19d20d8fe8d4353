#include "obs/report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "common/io_util.hpp"
#include "engine/kernel_registry.hpp"

namespace cudalign::obs {

namespace {

/// The process's peak resident set so far, in bytes (Linux reports
/// ru_maxrss in KiB); 0 when getrusage fails.
std::int64_t peak_rss_bytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::int64_t>(usage.ru_maxrss) * 1024;
}

Json crosspoint_json(const core::Crosspoint& cp) {
  return Json::object()
      .set("i", static_cast<std::int64_t>(cp.i))
      .set("j", static_cast<std::int64_t>(cp.j))
      .set("score", static_cast<std::int64_t>(cp.score))
      .set("type", static_cast<std::int64_t>(static_cast<int>(cp.type)));
}

/// Every engine::Tally counter, in one place for every stage entry, with
/// each kernel's wall time next to its tiles and cells.
void set_tally(Json& out, const engine::Tally& t,
               const std::array<double, engine::kKernelIdCount>& kernel_seconds) {
  Json kernels = Json::array();
  for (std::size_t k = 0; k < t.kernels.size(); ++k) {
    if (t.kernels[k].tiles == 0) continue;
    kernels.push(Json::object()
                     .set("name", engine::kernel_info(static_cast<engine::KernelId>(k)).name)
                     .set("tiles", static_cast<std::int64_t>(t.kernels[k].tiles))
                     .set("cells", static_cast<std::int64_t>(t.kernels[k].cells))
                     .set("seconds", kernel_seconds[k]));
  }
  out.set("cells", static_cast<std::int64_t>(t.cells))
      .set("pruned_cells", static_cast<std::int64_t>(t.pruned_cells))
      .set("tiles", static_cast<std::int64_t>(t.tiles))
      .set("pruned_tiles", static_cast<std::int64_t>(t.pruned_tiles))
      .set("narrow_rerun_tiles", static_cast<std::int64_t>(t.narrow_rerun_tiles))
      .set("narrow_rerun_cells", static_cast<std::int64_t>(t.narrow_rerun_cells))
      .set("hbus", Json::object().set("bytes", t.hbus_bytes))
      .set("vbus", Json::object().set("bytes", t.vbus_bytes))
      .set("kernels", std::move(kernels));
}

Json stage_json(int stage, const core::StageStats& s) {
  Json out = Json::object();
  out.set("stage", stage);
  set_tally(out, s, s.kernel_seconds);
  out.set("seconds", s.seconds)
      .set("gcups", s.gcups())
      .set("crosspoints", static_cast<std::int64_t>(s.crosspoints))
      .set("tiles_per_second",
           s.seconds > 0 ? static_cast<double>(s.tiles) / s.seconds : 0.0)
      .set("tiles_stolen", static_cast<std::int64_t>(s.tiles_stolen))
      .set("starvation_waits", static_cast<std::int64_t>(s.starvation_waits))
      .set("blocks_used", static_cast<std::int64_t>(s.blocks_used))
      .set("bus_ram_bytes", static_cast<std::int64_t>(s.ram_bytes))
      .set("sra", Json::object()
                      .set("rows_flushed", static_cast<std::int64_t>(s.sra_rows_flushed))
                      .set("rows_acked", static_cast<std::int64_t>(s.sra_rows_acked))
                      .set("rows_read", static_cast<std::int64_t>(s.sra_rows_read))
                      .set("bytes_flushed", s.sra_bytes_flushed)
                      .set("bytes_read", s.sra_bytes_read)
                      .set("flush_queue_peak", static_cast<std::int64_t>(s.sra_flush_queue_peak))
                      .set("flush_wait_seconds", s.sra_flush_wait_seconds)
                      .set("writer_busy_seconds", s.sra_writer_busy_seconds)
                      // Fraction of flush I/O hidden behind compute: 1 when
                      // the writer thread absorbed it all, 0 when the hook
                      // waited as long as the writer worked.
                      .set("overlap_ratio",
                           s.sra_writer_busy_seconds > 0
                               ? std::max(0.0, s.sra_writer_busy_seconds -
                                                   s.sra_flush_wait_seconds) /
                                     s.sra_writer_busy_seconds
                               : 0.0));
  return out;
}

}  // namespace

Json build_run_report(const ReportContext& ctx) {
  CUDALIGN_CHECK(ctx.options != nullptr && ctx.result != nullptr,
                 "run report needs the pipeline options and result");
  const core::PipelineOptions& opt = *ctx.options;
  const core::PipelineResult& res = *ctx.result;

  Json report = Json::object();
  report.set("schema", kReportSchemaName);
  report.set("schema_version", kReportSchemaVersion);

  report.set("inputs",
             Json::object()
                 .set("s0", Json::object()
                                .set("name", ctx.s0_name)
                                .set("length", static_cast<std::int64_t>(ctx.s0_length)))
                 .set("s1", Json::object()
                                .set("name", ctx.s1_name)
                                .set("length", static_cast<std::int64_t>(ctx.s1_length))));

  report.set("options", core::options_json(opt));

  report.set("result", Json::object()
                           .set("empty", res.empty)
                           .set("best_score", static_cast<std::int64_t>(res.best_score))
                           .set("end", crosspoint_json(res.end_point))
                           .set("start", crosspoint_json(res.start_point)));

  Json stages = Json::array();
  for (std::size_t k = 0; k < res.stages.size(); ++k) {
    stages.push(stage_json(static_cast<int>(k) + 1, res.stages[k]));
  }
  report.set("stages", std::move(stages));

  report.set("stage1", Json::object()
                           .set("special_rows_saved",
                                static_cast<std::int64_t>(res.special_rows_saved))
                           .set("flush_interval", static_cast<std::int64_t>(res.flush_interval))
                           .set("prune_floor", static_cast<std::int64_t>(res.prune_floor))
                           .set("prune_floor_seconds", res.prune_floor_seconds));

  const core::Stage2Speculation& spec = res.stage2_speculation;
  report.set("stage2",
             Json::object()
                 .set("waves", static_cast<std::int64_t>(spec.waves))
                 .set("guess_hits", static_cast<std::int64_t>(spec.guess_hits))
                 .set("reruns", static_cast<std::int64_t>(spec.reruns))
                 .set("discarded_iterations", static_cast<std::int64_t>(spec.discarded_iterations))
                 .set("discarded_cells", static_cast<std::int64_t>(spec.discarded_cells))
                 .set("discarded_bytes_read", spec.discarded_bytes_read));

  Json iterations = Json::array();
  for (const core::Stage4Iteration& it : res.stage4_iterations) {
    iterations.push(Json::object()
                        .set("iteration", static_cast<std::int64_t>(it.iteration))
                        .set("h_max", static_cast<std::int64_t>(it.h_max))
                        .set("w_max", static_cast<std::int64_t>(it.w_max))
                        .set("crosspoints", static_cast<std::int64_t>(it.crosspoints))
                        .set("seconds", it.seconds)
                        .set("cells", static_cast<std::int64_t>(it.cells)));
  }
  report.set("stage4", Json::object().set("iterations", std::move(iterations)));

  report.set("stage5", Json::object()
                           .set("partitions", static_cast<std::int64_t>(res.stage5_partitions))
                           .set("h_max", static_cast<std::int64_t>(res.stage5_h_max))
                           .set("w_max", static_cast<std::int64_t>(res.stage5_w_max)));

  report.set("sra", Json::object()
                        .set("peak_bytes", res.sra_peak_bytes)
                        .set("stored_peak_bytes", res.sra_stored_peak_bytes)
                        .set("special_rows_saved",
                             static_cast<std::int64_t>(res.special_rows_saved))
                        .set("special_cols_saved",
                             static_cast<std::int64_t>(res.special_cols_saved)));

  if (res.resume.enabled) {
    report.set("resume",
               Json::object()
                   .set("resumed", res.resume.resumed)
                   .set("resumed_stage", res.resume.resumed_stage)
                   .set("resumed_from_row", static_cast<std::int64_t>(res.resume.resumed_from_row))
                   .set("cells_skipped", static_cast<std::int64_t>(res.resume.cells_skipped))
                   .set("rows_restored", static_cast<std::int64_t>(res.resume.rows_restored))
                   .set("checkpoint_bytes_written", res.resume.checkpoint_bytes_written)
                   .set("checkpoint_bytes_read", res.resume.checkpoint_bytes_read)
                   .set("checkpoint_updates",
                        static_cast<std::int64_t>(res.resume.checkpoint_updates)));
  }

  Json counts = Json::array();
  for (const Index c : res.crosspoint_counts) counts.push(static_cast<std::int64_t>(c));
  report.set("crosspoint_counts", std::move(counts));
  report.set("partition_h_max_after_stage3",
             static_cast<std::int64_t>(res.h_max_after_stage3));
  report.set("partition_w_max_after_stage3",
             static_cast<std::int64_t>(res.w_max_after_stage3));

  WideScore total_cells = 0;
  for (const core::StageStats& s : res.stages) total_cells += s.cells;
  const double total_seconds = res.total_seconds();
  Json totals = Json::object()
                    .set("seconds", total_seconds)
                    .set("cells", static_cast<std::int64_t>(total_cells))
                    .set("gcups", total_seconds > 0
                                      ? static_cast<double>(total_cells) / total_seconds / 1e9
                                      : 0.0);
  // Peak RSS of the whole process up to now: the bus, the SRA writer queue
  // and everything else the run held at its high-water mark.
  if (const std::int64_t rss = peak_rss_bytes(); rss > 0) totals.set("peak_rss_bytes", rss);
  report.set("totals", std::move(totals));

  if (ctx.telemetry != nullptr) report.set("spans", ctx.telemetry->to_json());
  return report;
}

void write_report_file(const Json& report, const std::filesystem::path& path) {
  write_file(path, report.dump(2) + "\n");
}

std::vector<std::string> validate_run_report(const Json& report) {
  std::vector<std::string> problems;
  auto require = [&](bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
    return ok;
  };

  if (!require(report.is_object(), "report is not a JSON object")) return problems;

  const Json* schema = report.find("schema");
  require(schema != nullptr && schema->is_string() && schema->as_string() == kReportSchemaName,
          std::string("schema is not \"") + kReportSchemaName + "\"");
  const Json* version = report.find("schema_version");
  require(version != nullptr && version->is_int() &&
              version->as_int() == kReportSchemaVersion,
          "schema_version is not " + std::to_string(kReportSchemaVersion));

  for (const char* key : {"inputs", "options", "result", "stages", "stage1", "stage2",
                          "stage4", "stage5", "sra", "crosspoint_counts", "totals"}) {
    require(report.find(key) != nullptr, std::string("missing key \"") + key + "\"");
  }

  const Json* stages = report.find("stages");
  if (!require(stages != nullptr && stages->is_array() && stages->as_array().size() == 6,
               "stages is not an array of 6 entries")) {
    return problems;
  }
  WideScore total_cells = 0;
  for (const Json& stage : stages->as_array()) {
    if (!require(stage.is_object(), "stage entry is not an object")) continue;
    for (const char* key :
         {"stage", "seconds", "cells", "pruned_cells", "gcups", "tiles", "pruned_tiles",
          "tiles_per_second", "narrow_rerun_tiles", "narrow_rerun_cells", "tiles_stolen",
          "starvation_waits", "hbus", "vbus", "sra"}) {
      require(stage.find(key) != nullptr,
              std::string("stage entry missing key \"") + key + "\"");
    }
    const Json* cells = stage.find("cells");
    if (cells == nullptr || !cells->is_int()) continue;
    total_cells += cells->as_int();
    // Invariant: narrow re-runs count each re-run tile's cells once, and
    // those tiles are among the stage's.
    if (const Json* rerun = stage.find("narrow_rerun_cells"); rerun != nullptr && rerun->is_int()) {
      require(rerun->as_int() >= 0 && rerun->as_int() <= cells->as_int(),
              "stage narrow_rerun_cells (" + std::to_string(rerun->as_int()) +
                  ") outside [0, stage cells (" + std::to_string(cells->as_int()) + ")]");
    }
    // Invariant: a stage that attributes its tiles to kernels attributes all
    // of its cells — the per-kernel cells sum to the stage's.
    if (const Json* kernels = stage.find("kernels");
        kernels != nullptr && kernels->is_array() && !kernels->as_array().empty()) {
      const Json* id = stage.find("stage");
      const std::string label =
          id != nullptr && id->is_int() ? std::to_string(id->as_int()) : "?";
      std::int64_t kernel_cells = 0;
      for (const Json& k : kernels->as_array()) {
        if (const Json* kc = k.find("cells"); kc != nullptr && kc->is_int()) {
          kernel_cells += kc->as_int();
        }
        // Per-kernel wall time: a finite, non-negative number of seconds.
        const Json* ks = k.find("seconds");
        require(ks != nullptr && ks->is_number() && std::isfinite(ks->as_double()) &&
                    ks->as_double() >= 0,
                "stage " + label + " kernel entry has no finite non-negative \"seconds\"");
      }
      require(kernel_cells == cells->as_int(),
              "stage " + label + " kernel cells (" + std::to_string(kernel_cells) +
                  ") != stage cells (" + std::to_string(cells->as_int()) + ")");
    }
  }

  const Json* inputs = report.find("inputs");
  const Json* stage1 = report.find("stage1");
  const Json* sra = report.find("sra");
  const Json* totals = report.find("totals");
  if (inputs == nullptr || stage1 == nullptr || sra == nullptr || totals == nullptr ||
      !inputs->is_object() || !stage1->is_object() || !sra->is_object() ||
      !totals->is_object()) {
    return problems;
  }

  // A resumed run accounts the work it did NOT redo in the `resume` block;
  // the stage-1 invariants below fold those amounts back in.
  std::int64_t cells_skipped = 0;
  std::int64_t rows_restored = 0;
  if (const Json* resume = report.find("resume"); resume != nullptr && resume->is_object()) {
    for (const char* key : {"resumed", "resumed_stage", "resumed_from_row", "cells_skipped",
                            "rows_restored", "checkpoint_bytes_written",
                            "checkpoint_bytes_read", "checkpoint_updates"}) {
      require(resume->find(key) != nullptr,
              std::string("resume block missing key \"") + key + "\"");
    }
    if (const Json* v = resume->find("cells_skipped"); v != nullptr && v->is_int()) {
      cells_skipped = v->as_int();
    }
    if (const Json* v = resume->find("rows_restored"); v != nullptr && v->is_int()) {
      rows_restored = v->as_int();
    }
    // Invariant: the manifest is saved once before Stage 1 and at the five
    // stage boundaries, never per special row.
    if (const Json* v = resume->find("checkpoint_updates"); v != nullptr && v->is_int()) {
      require(v->as_int() <= 6, "resume checkpoint_updates (" + std::to_string(v->as_int()) +
                                    ") > 6 (one start save plus five stage boundaries)");
    }
  }

  // Invariant: Stage 1 visits every cell of the m*n matrix except the pruned
  // ones and the ones a resume skipped — together they tile the full grid.
  const std::int64_t m = inputs->at("s0").at("length").as_int();
  const std::int64_t n = inputs->at("s1").at("length").as_int();
  const std::int64_t stage1_cells = stages->as_array()[0].at("cells").as_int();
  const std::int64_t pruned = stages->as_array()[0].at("pruned_cells").as_int();
  require(stage1_cells + pruned + cells_skipped == m * n,
          "stage 1 cells (" + std::to_string(stage1_cells) + ") + pruned (" +
              std::to_string(pruned) + ") + skipped (" + std::to_string(cells_skipped) +
              ") != m*n (" + std::to_string(m * n) + ")");

  // Invariant: the prune floor is the score of a real local alignment, so it
  // never exceeds the optimum.
  if (const Json* floor = stage1->find("prune_floor"); floor != nullptr && floor->is_int()) {
    const Json* result = report.find("result");
    const Json* best = result != nullptr && result->is_object() ? result->find("best_score")
                                                                : nullptr;
    if (require(best != nullptr && best->is_int(), "result block missing best_score")) {
      require(floor->as_int() <= best->as_int(),
              "stage1 prune_floor (" + std::to_string(floor->as_int()) +
                  ") > result.best_score (" + std::to_string(best->as_int()) + ")");
    }
  }

  // Invariant: every kept Stage-2 iteration is a wave's first member, a guess
  // hit or a re-run, and each adds one crosspoint to L_2 (a run that did not
  // reach Stage 2, or resumed past it, reports 0 crosspoints and no waves).
  if (const Json* stage2 = report.find("stage2"); stage2 != nullptr && stage2->is_object()) {
    const auto count = [&](const char* key) -> std::int64_t {
      const Json* v = stage2->find(key);
      const bool ok = v != nullptr && v->is_int() && v->as_int() >= 0;
      require(ok, std::string("stage2 block: \"") + key + "\" is not a non-negative integer");
      return ok ? v->as_int() : 0;
    };
    for (const char* key : {"discarded_iterations", "discarded_cells", "discarded_bytes_read"}) {
      (void)count(key);
    }
    const std::int64_t kept = count("waves") + count("guess_hits") + count("reruns");
    const std::int64_t crosspoints = stages->as_array()[1].at("crosspoints").as_int();
    require(kept == std::max<std::int64_t>(crosspoints - 1, 0),
            "stage2 waves + guess_hits + reruns (" + std::to_string(kept) +
                ") != stage 2 crosspoints - 1 (" + std::to_string(crosspoints - 1) + ")");
  }

  // Invariant: every saved special row was either flushed by this run's
  // Stage 1 or restored from the checkpoint.
  const std::int64_t rows_flushed =
      stages->as_array()[0].at("sra").at("rows_flushed").as_int();
  const std::int64_t rows_saved = sra->at("special_rows_saved").as_int();
  require(rows_flushed + rows_restored == rows_saved,
          "stage 1 SRA rows_flushed (" + std::to_string(rows_flushed) + ") + restored (" +
              std::to_string(rows_restored) + ") != special_rows_saved (" +
              std::to_string(rows_saved) + ")");

  // Invariant (async flush pipeline): every row Stage 1 handed to the flush
  // path was durably written and acknowledged by stage completion — a
  // wedged or failed writer cannot produce a clean report.
  const Json* rows_acked = stages->as_array()[0].at("sra").find("rows_acked");
  if (require(rows_acked != nullptr && rows_acked->is_int(),
              "stage 1 sra block missing rows_acked")) {
    require(rows_acked->as_int() == rows_flushed,
            "stage 1 SRA rows_acked (" + std::to_string(rows_acked->as_int()) +
                ") != rows_flushed (" + std::to_string(rows_flushed) + ")");
  }

  // Invariant: the SRA stores at most every cell of its rows, so the bytes on
  // disk never exceed the logical bytes.
  const Json* peak = sra->find("peak_bytes");
  const Json* stored_peak = sra->find("stored_peak_bytes");
  if (require(peak != nullptr && peak->is_int() && stored_peak != nullptr &&
                  stored_peak->is_int() && stored_peak->as_int() >= 0,
              "sra block needs integer peak_bytes and stored_peak_bytes")) {
    require(stored_peak->as_int() <= peak->as_int(),
            "sra stored_peak_bytes (" + std::to_string(stored_peak->as_int()) +
                ") > peak_bytes (" + std::to_string(peak->as_int()) + ")");
  }

  // Invariant: totals.cells is the sum over the stages array.
  const std::int64_t reported_total = totals->at("cells").as_int();
  require(reported_total == total_cells,
          "totals.cells (" + std::to_string(reported_total) + ") != sum over stages (" +
              std::to_string(total_cells) + ")");
  if (const Json* rss = totals->find("peak_rss_bytes"); rss != nullptr) {
    require(rss->is_int() && rss->as_int() > 0, "totals.peak_rss_bytes is not a positive integer");
  }

  return problems;
}

}  // namespace cudalign::obs
