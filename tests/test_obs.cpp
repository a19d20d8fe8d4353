// obs layer: JSON value tree, span telemetry, progress meter, and the
// versioned run report (built from a real small pipeline run and checked for
// internal consistency).
#include <gtest/gtest.h>

#include <cstdio>
#include <limits>

#include "common/error.hpp"
#include "common/io_util.hpp"
#include "core/pipeline.hpp"
#include "engine/kernel_registry.hpp"
#include "obs/json.hpp"
#include "obs/progress.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "seq/generator.hpp"

namespace cudalign::obs {
namespace {

// ---------------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------------

TEST(Json, ScalarRoundTrip) {
  EXPECT_EQ(Json::parse("null"), Json());
  EXPECT_EQ(Json::parse("true"), Json(true));
  EXPECT_EQ(Json::parse("false"), Json(false));
  EXPECT_EQ(Json::parse("42"), Json(42));
  EXPECT_EQ(Json::parse("-7"), Json(-7));
  EXPECT_EQ(Json::parse("\"hi\""), Json("hi"));
  EXPECT_DOUBLE_EQ(Json::parse("2.5").as_double(), 2.5);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_double(), 1000.0);
}

TEST(Json, IntAndDoubleKeepTheirIdentity) {
  // 3 and 3.0 must survive a dump/parse cycle as distinct types: counters
  // stay exact, seconds stay floating.
  const Json i(3);
  const Json d(3.0);
  EXPECT_TRUE(Json::parse(i.dump()).is_int());
  EXPECT_TRUE(Json::parse(d.dump()).is_double());
  EXPECT_EQ(Json::parse(i.dump()), i);
  EXPECT_EQ(Json::parse(d.dump()), d);
}

TEST(Json, LargeCountersRoundTripExactly) {
  const std::int64_t big = (std::int64_t{1} << 53) + 1;  // Not double-representable.
  EXPECT_EQ(Json::parse(Json(big).dump()).as_int(), big);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json o = Json::object().set("zeta", 1).set("alpha", 2).set("mid", 3);
  const auto& obj = o.as_object();
  ASSERT_EQ(obj.size(), 3u);
  EXPECT_EQ(obj[0].first, "zeta");
  EXPECT_EQ(obj[1].first, "alpha");
  EXPECT_EQ(obj[2].first, "mid");
  EXPECT_EQ(Json::parse(o.dump()), o);
}

TEST(Json, SetReplacesExistingKey) {
  Json o = Json::object().set("k", 1).set("k", 2);
  ASSERT_EQ(o.as_object().size(), 1u);
  EXPECT_EQ(o.at("k").as_int(), 2);
}

TEST(Json, NestedStructuresRoundTrip) {
  Json doc = Json::object()
                 .set("list", Json::array().push(1).push("two").push(Json::object().set("x", true)))
                 .set("empty_list", Json::array())
                 .set("empty_obj", Json::object());
  EXPECT_EQ(Json::parse(doc.dump(2)), doc);
  EXPECT_EQ(Json::parse(doc.dump(0)), doc);
}

TEST(Json, StringEscapesRoundTrip) {
  const Json s(std::string("a\"b\\c\n\t\r\x01 d"));
  EXPECT_EQ(Json::parse(s.dump()), s);
}

TEST(Json, ParseRejectsGarbage) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated",
                          "{\"a\":1,}", "nan", "[1 2]"}) {
    EXPECT_THROW((void)Json::parse(bad), Error) << bad;
  }
}

TEST(Json, ParseErrorNamesByteOffset) {
  try {
    (void)Json::parse("[1, x]");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("byte"), std::string::npos) << e.what();
  }
}

TEST(Json, RejectsNonFiniteOnWrite) {
  EXPECT_THROW((void)Json(std::numeric_limits<double>::infinity()).dump(), Error);
  EXPECT_THROW((void)Json(std::numeric_limits<double>::quiet_NaN()).dump(), Error);
}

TEST(Json, AccessorsThrowOnTypeMismatch) {
  const Json s("text");
  EXPECT_THROW((void)s.as_int(), Error);
  EXPECT_THROW((void)s.at("key"), Error);
  EXPECT_EQ(s.find("key"), nullptr);
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

TEST(Telemetry, RecordsNestedSpans) {
  Telemetry t;
  t.begin("outer");
  t.begin("inner");
  t.end();
  t.end();
  const Span& root = t.finish();
  EXPECT_EQ(root.name, "run");
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0].name, "outer");
  ASSERT_EQ(root.children[0].children.size(), 1u);
  EXPECT_EQ(root.children[0].children[0].name, "inner");
  EXPECT_GE(root.seconds, root.children[0].seconds);
  EXPECT_GE(root.children[0].seconds, root.children[0].children[0].seconds);
}

TEST(Telemetry, FinishClosesOpenSpans) {
  Telemetry t;
  t.begin("left-open");
  t.begin("also-open");
  EXPECT_EQ(t.open_spans(), 2u);
  const Span& root = t.finish();
  EXPECT_EQ(t.open_spans(), 0u);
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0].children.size(), 1u);
}

TEST(Telemetry, UnbalancedEndThrows) {
  Telemetry t;
  EXPECT_THROW(t.end(), Error);
}

TEST(Telemetry, ScopedSpanToleratesNull) {
  ScopedSpan nothing(nullptr, "ignored");  // Must not crash or allocate a recorder.
  Telemetry t;
  {
    ScopedSpan a(&t, "a");
    ScopedSpan b(&t, "b");
  }
  const Span& root = t.finish();
  ASSERT_EQ(root.children.size(), 1u);
  EXPECT_EQ(root.children[0].name, "a");
}

TEST(Telemetry, ToJsonShape) {
  Telemetry t;
  t.begin("phase");
  t.end();
  t.finish();
  const Json j = t.to_json();
  EXPECT_EQ(j.at("name").as_string(), "run");
  EXPECT_TRUE(j.at("seconds").is_double());
  ASSERT_EQ(j.at("children").as_array().size(), 1u);
  const Json& child = j.at("children").as_array()[0];
  EXPECT_EQ(child.at("name").as_string(), "phase");
  EXPECT_EQ(child.find("children"), nullptr);  // Leaf spans omit the empty list.
}

// ---------------------------------------------------------------------------
// ProgressMeter
// ---------------------------------------------------------------------------

TEST(Progress, WritesAndTerminatesLine) {
  TempDir dir("obs-test");
  const auto path = dir.path() / "progress.txt";
  {
    FILE* out = std::fopen(path.string().c_str(), "w");
    ASSERT_NE(out, nullptr);
    ProgressMeter meter(out, /*min_interval_s=*/0.0);
    meter.update(1, 0.25);
    meter.update(1, 1.0);
    meter.update(5, 1.0);
    meter.finish();
    std::fclose(out);
  }
  const std::string text = read_file(path);
  EXPECT_NE(text.find("stage 1/6"), std::string::npos) << text;
  EXPECT_NE(text.find("stage 5/6"), std::string::npos) << text;
  EXPECT_EQ(text.back(), '\n');  // finish() must terminate the live line.
}

// ---------------------------------------------------------------------------
// Run report
// ---------------------------------------------------------------------------

struct SmallRun {
  seq::SequencePair pair;
  core::PipelineOptions options;
  core::PipelineResult result;
  Telemetry telemetry;
};

SmallRun small_pipeline_run() {
  SmallRun run;
  run.pair = seq::make_related_pair(600, 620, 77);
  run.options.grid_stage1 = engine::GridSpec{8, 8, 4, 16};
  run.options.grid_stage23 = engine::GridSpec{4, 8, 4, 16};
  run.options.sra_rows_budget = 1 << 20;
  run.options.sra_cols_budget = 1 << 20;
  run.options.block_pruning = false;  // Stage 1 then visits exactly m*n cells.
  run.options.telemetry = &run.telemetry;
  run.result = core::align_pipeline(run.pair.s0, run.pair.s1, run.options);
  run.telemetry.finish();
  return run;
}

ReportContext context_of(const SmallRun& run) {
  ReportContext ctx;
  ctx.s0_name = run.pair.s0.name();
  ctx.s0_length = static_cast<Index>(run.pair.s0.size());
  ctx.s1_name = run.pair.s1.name();
  ctx.s1_length = static_cast<Index>(run.pair.s1.size());
  ctx.options = &run.options;
  ctx.result = &run.result;
  ctx.telemetry = &run.telemetry;
  return ctx;
}

TEST(RunReport, BuildsValidConsistentDocument) {
  const SmallRun run = small_pipeline_run();
  const Json report = build_run_report(context_of(run));

  const auto problems = validate_run_report(report);
  EXPECT_TRUE(problems.empty()) << problems.front();

  EXPECT_EQ(report.at("schema").as_string(), kReportSchemaName);
  EXPECT_EQ(report.at("schema_version").as_int(), kReportSchemaVersion);

  // Stage 1 (no pruning here) visits exactly the m*n cells of the matrix.
  const std::int64_t m = report.at("inputs").at("s0").at("length").as_int();
  const std::int64_t n = report.at("inputs").at("s1").at("length").as_int();
  const auto& stages = report.at("stages").as_array();
  ASSERT_EQ(stages.size(), 6u);
  EXPECT_EQ(stages[0].at("cells").as_int(), m * n);
  EXPECT_EQ(stages[0].at("cells").as_int() + stages[0].at("pruned_cells").as_int(), m * n);
  EXPECT_EQ(report.at("stage1").at("prune_floor").as_int(), 0);  // No pruning, no floor.

  // Every special row Stage 1 saved is one SRA flush, byte-accounted.
  EXPECT_EQ(stages[0].at("sra").at("rows_flushed").as_int(),
            report.at("sra").at("special_rows_saved").as_int());
  EXPECT_GT(stages[0].at("sra").at("rows_flushed").as_int(), 0);
  EXPECT_GT(stages[0].at("sra").at("bytes_flushed").as_int(), 0);

  // The wavefront moved data over both buses and tallied its kernels.
  EXPECT_GT(stages[0].at("hbus").at("bytes").as_int(), 0);
  EXPECT_GT(stages[0].at("vbus").at("bytes").as_int(), 0);
  EXPECT_GT(stages[0].at("tiles").as_int(), 0);
  EXPECT_FALSE(stages[0].at("kernels").as_array().empty());

  // The process held at least the two sequences at its high-water mark.
  EXPECT_GT(report.at("totals").at("peak_rss_bytes").as_int(), m + n);

  // Stage 2 reads back what Stage 1 flushed.
  EXPECT_EQ(stages[1].at("sra").at("bytes_read").as_int(),
            stages[0].at("sra").at("bytes_flushed").as_int());

  // The span tree mirrors the pipeline structure.
  const Json& spans = report.at("spans");
  ASSERT_EQ(spans.at("children").as_array().size(), 1u);
  const Json& pipeline = spans.at("children").as_array()[0];
  EXPECT_EQ(pipeline.at("name").as_string(), "pipeline");
  const auto& stage_spans = pipeline.at("children").as_array();
  ASSERT_GE(stage_spans.size(), 5u);
  EXPECT_EQ(stage_spans[0].at("name").as_string(), "stage 1 (score)");
  // Stage 1's children are the engine's external-diagonal buckets.
  EXPECT_FALSE(stage_spans[0].at("children").as_array().empty());
}

TEST(RunReport, RoundTripsThroughFile) {
  const SmallRun run = small_pipeline_run();
  const Json report = build_run_report(context_of(run));
  TempDir dir("obs-test");
  const auto path = dir.path() / "run.json";
  write_report_file(report, path);
  const Json back = Json::parse(read_file(path));
  EXPECT_EQ(back, report);
  EXPECT_TRUE(validate_run_report(back).empty());
}

TEST(RunReport, ValidatorFlagsTampering) {
  const SmallRun run = small_pipeline_run();
  Json report = build_run_report(context_of(run));

  Json wrong_version = report;
  wrong_version.set("schema_version", 999);
  EXPECT_FALSE(validate_run_report(wrong_version).empty());

  Json wrong_schema = report;
  wrong_schema.set("schema", "something-else");
  EXPECT_FALSE(validate_run_report(wrong_schema).empty());

  Json broken_totals = report;
  broken_totals.set("totals", Json::object().set("seconds", 0.0).set("cells", 1).set("gcups", 0.0));
  EXPECT_FALSE(validate_run_report(broken_totals).empty());

  // Narrow re-run cells are a subset of their stage's cells.
  {
    const auto& stages = report.at("stages").as_array();
    Json rebuilt = Json::array();
    for (std::size_t k = 0; k < stages.size(); ++k) {
      Json stage = stages[k];
      if (k == 0) stage.set("narrow_rerun_cells", stage.at("cells").as_int() + 1);
      rebuilt.push(std::move(stage));
    }
    Json bad_rerun = report;
    bad_rerun.set("stages", rebuilt);
    EXPECT_FALSE(validate_run_report(bad_rerun).empty());
  }

  for (const Json& rss : {Json(0), Json(-4096), Json("1 MB")}) {
    Json bad_rss = report;
    Json totals = report.at("totals");
    totals.set("peak_rss_bytes", rss);
    bad_rss.set("totals", totals);
    EXPECT_FALSE(validate_run_report(bad_rss).empty()) << rss.dump(0);
  }

  // The prune floor is a lower bound on the optimum.
  {
    Json stage1 = report.at("stage1");
    stage1.set("prune_floor", report.at("result").at("best_score").as_int() + 1);
    Json bad_floor = report;
    bad_floor.set("stage1", stage1);
    EXPECT_FALSE(validate_run_report(bad_floor).empty());
  }

  // The SRA stores at most every cell of its rows, and the stored peak is
  // required.
  {
    Json sra = report.at("sra");
    ASSERT_LE(sra.at("stored_peak_bytes").as_int(), sra.at("peak_bytes").as_int());
    sra.set("stored_peak_bytes", sra.at("peak_bytes").as_int() + 1);
    Json bad_stored = report;
    bad_stored.set("sra", sra);
    EXPECT_FALSE(validate_run_report(bad_stored).empty());
    Json no_stored = Json::object();
    for (const auto& [key, value] : report.at("sra").as_object()) {
      if (key != "stored_peak_bytes") no_stored.set(key, value);
    }
    Json missing_stored = report;
    missing_stored.set("sra", no_stored);
    EXPECT_FALSE(validate_run_report(missing_stored).empty());
  }

  // Every kept Stage-2 iteration is a wave's first member, a guess hit or a
  // re-run, and the block is required.
  {
    Json stage2 = report.at("stage2");
    stage2.set("reruns", stage2.at("reruns").as_int() + 1);
    Json bad_stage2 = report;
    bad_stage2.set("stage2", stage2);
    EXPECT_FALSE(validate_run_report(bad_stage2).empty());
    Json no_stage2 = Json::object();
    for (const auto& [key, value] : report.as_object()) {
      if (key != "stage2") no_stage2.set(key, value);
    }
    EXPECT_FALSE(validate_run_report(no_stage2).empty());
  }

  // A checkpointed run saves its manifest once before Stage 1 and at the
  // five stage boundaries, never once per special row.
  for (const std::int64_t updates : {6, 7}) {
    Json checkpointed = report;
    checkpointed.set("resume", Json::object()
                                   .set("resumed", false)
                                   .set("resumed_stage", 0)
                                   .set("resumed_from_row", 0)
                                   .set("cells_skipped", 0)
                                   .set("rows_restored", 0)
                                   .set("checkpoint_bytes_written", 0)
                                   .set("checkpoint_bytes_read", 0)
                                   .set("checkpoint_updates", updates));
    EXPECT_EQ(validate_run_report(checkpointed).empty(), updates == 6) << updates;
  }

  EXPECT_FALSE(validate_run_report(Json("not an object")).empty());
}

TEST(RunReport, FlushPipelineAccountingReported) {
  // The default pipeline runs with the async SRA writer: the stage-1 sra
  // block must account the overlap machinery — every flushed row durably
  // acked, a real queue high-water mark, and a bounded overlap ratio.
  const SmallRun run = small_pipeline_run();
  const Json report = build_run_report(context_of(run));
  EXPECT_TRUE(validate_run_report(report).empty());

  const Json& sra = report.at("stages").as_array()[0].at("sra");
  EXPECT_EQ(sra.at("rows_acked").as_int(), sra.at("rows_flushed").as_int());
  EXPECT_GT(sra.at("rows_acked").as_int(), 0);
  EXPECT_GE(sra.at("flush_queue_peak").as_int(), 1);
  EXPECT_GE(sra.at("flush_wait_seconds").as_double(), 0.0);
  EXPECT_GE(sra.at("writer_busy_seconds").as_double(), 0.0);
  const double overlap = sra.at("overlap_ratio").as_double();
  EXPECT_GE(overlap, 0.0);
  EXPECT_LE(overlap, 1.0);
}

TEST(RunReport, ValidatorFlagsFlushAckMismatch) {
  // rows_acked != rows_flushed means a row retired without its durable ack —
  // exactly the defect the async writer's ordering contract rules out, so the
  // validator must reject a report that claims it.
  const SmallRun run = small_pipeline_run();
  const Json report = build_run_report(context_of(run));

  Json stage1 = report.at("stages").as_array()[0];
  Json sra = stage1.at("sra");
  sra.set("rows_acked", sra.at("rows_acked").as_int() + 1);
  stage1.set("sra", sra);
  Json stages = Json::array();
  stages.push(stage1);
  const auto& original = report.at("stages").as_array();
  for (std::size_t k = 1; k < original.size(); ++k) stages.push(original[k]);
  Json tampered = report;
  tampered.set("stages", stages);
  EXPECT_FALSE(validate_run_report(tampered).empty());
}

TEST(RunReport, KernelCellsSumToStageCells) {
  // Stages 1-4 attribute every computed cell to a kernel variant; the
  // validator rejects a stage whose per-kernel cells drift from its total.
  const SmallRun run = small_pipeline_run();
  const Json report = build_run_report(context_of(run));
  const auto& original = report.at("stages").as_array();
  // Stage 3 runs no tiles on this small input.
  for (const std::size_t k : {0, 1, 3}) {
    EXPECT_FALSE(original[k].at("kernels").as_array().empty()) << "stage " << k + 1;
  }
  EXPECT_TRUE(validate_run_report(report).empty());

  Json stage4 = original[3];
  Json kernels = Json::array();
  const auto& entries = stage4.at("kernels").as_array();
  for (std::size_t k = 0; k < entries.size(); ++k) {
    Json entry = entries[k];
    if (k == 0) entry.set("cells", entry.at("cells").as_int() + 1);
    kernels.push(entry);
  }
  stage4.set("kernels", kernels);
  Json stages = Json::array();
  for (std::size_t k = 0; k < original.size(); ++k) stages.push(k == 3 ? stage4 : original[k]);
  Json tampered = report;
  tampered.set("stages", stages);
  const auto problems = validate_run_report(tampered);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_NE(problems.front().find("stage 4 kernel cells"), std::string::npos) << problems.front();
}

TEST(RunReport, KernelSecondsSitBesideEachKernelTally) {
  // Each kernels[] entry carries the wall time of that variant's kernel
  // calls; the validator requires a finite, non-negative number.
  const SmallRun run = small_pipeline_run();
  for (const std::size_t k : {0, 1, 3}) {
    const core::StageStats& st = run.result.stages[k];
    double total = 0;
    for (std::size_t id = 0; id < engine::kKernelIdCount; ++id) {
      EXPECT_GE(st.kernel_seconds[id], 0.0) << "stage " << k + 1;
      if (st.kernels[id].tiles == 0) {
        EXPECT_EQ(st.kernel_seconds[id], 0.0) << "stage " << k + 1;
      }
      total += st.kernel_seconds[id];
    }
    EXPECT_GT(total, 0.0) << "stage " << k + 1;
  }
  const Json report = build_run_report(context_of(run));
  EXPECT_TRUE(validate_run_report(report).empty());
  const auto& original = report.at("stages").as_array();
  for (std::size_t k = 0; k < original.size(); ++k) {
    for (const Json& entry : original[k].at("kernels").as_array()) {
      const engine::KernelVariant* variant = engine::find_kernel(entry.at("name").as_string());
      ASSERT_NE(variant, nullptr);
      EXPECT_EQ(entry.at("seconds").as_double(),
                run.result.stages[k].kernel_seconds[static_cast<std::size_t>(variant->id)]);
    }
  }

  // A negative, a non-numeric and a missing value are each flagged.
  for (int tamper = 0; tamper < 3; ++tamper) {
    Json stage1 = original[0];
    Json kernels = stage1.at("kernels");
    Json entry = kernels.as_array()[0];
    if (tamper == 0) entry.set("seconds", -0.5);
    if (tamper == 1) entry.set("seconds", "fast");
    if (tamper == 2) {
      Json stripped = Json::object();
      for (const auto& [key, value] : entry.as_object()) {
        if (key != "seconds") stripped.set(key, value);
      }
      entry = stripped;
    }
    Json rebuilt = Json::array();
    rebuilt.push(entry);
    for (std::size_t e = 1; e < kernels.as_array().size(); ++e) rebuilt.push(kernels.as_array()[e]);
    stage1.set("kernels", rebuilt);
    Json stages = Json::array();
    for (std::size_t k = 0; k < original.size(); ++k) stages.push(k == 0 ? stage1 : original[k]);
    Json tampered = report;
    tampered.set("stages", stages);
    const auto problems = validate_run_report(tampered);
    ASSERT_EQ(problems.size(), 1u) << "tamper " << tamper;
    EXPECT_NE(problems.front().find("stage 1 kernel entry"), std::string::npos)
        << problems.front();
  }
}

TEST(RunReport, OptionsBlockIsTheRunConfiguration) {
  // The report writes exactly the run configuration the checkpoint envelope
  // stores.
  const SmallRun run = small_pipeline_run();
  EXPECT_EQ(build_run_report(context_of(run)).at("options"), core::options_json(run.options));

  engine::set_kernel_override("striped16-local+best");
  const Json pinned = build_run_report(context_of(run));
  engine::reload_kernel_override_from_env();
  EXPECT_EQ(pinned.at("options").at("kernel").as_string(), "striped16-local+best");
}

}  // namespace
}  // namespace cudalign::obs
