// Checkpoint/resume: the manifest format (round trip, tamper detection,
// envelope matching) and the pipeline property that matters — a run killed at
// any checkpoint and resumed produces the byte-identical alignment of an
// uninterrupted run, while corrupt or mismatched checkpoints are refused.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <map>

#include "common/io_util.hpp"
#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"
#include "engine/kernel_registry.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "test_util.hpp"

namespace cudalign::core {
namespace {

engine::GridSpec tiny_grid(Index blocks, Index threads, Index alpha) {
  engine::GridSpec g;
  g.blocks = blocks;
  g.threads = threads;
  g.alpha = alpha;
  g.multiprocessors = 1;
  return g;
}

PipelineOptions small_options() {
  PipelineOptions o;
  o.grid_stage1 = tiny_grid(3, 4, 2);
  o.grid_stage23 = tiny_grid(2, 4, 2);
  // A roomy rows budget gives flush interval 1: one special row (and thus
  // one checkpoint save) per strip, plenty of crash points on small problems.
  o.sra_rows_budget = 1 << 20;
  o.sra_cols_budget = 1 << 20;
  o.max_partition_size = 16;
  return o;
}

CheckpointEnvelope sample_envelope() {
  return CheckpointEnvelope{0x0123456789abcdefull, 0xfedcba9876543210ull, 300, 240,
                            options_json(small_options())};
}

/// Dotted paths of every non-object value under `json`.
void collect_leaves(const obs::Json& json, const std::string& path,
                    std::vector<std::string>& out) {
  if (!json.is_object()) {
    out.push_back(path);
    return;
  }
  for (const auto& [key, value] : json.as_object()) {
    collect_leaves(value, path.empty() ? key : path + "." + key, out);
  }
}

CheckpointState sample_state() {
  CheckpointState s;
  s.envelope = sample_envelope();
  s.stage = CheckpointStage::kStage1;
  s.stage1.last_flushed_row = 16;  // Strip height 8, interval 2.
  s.stage1.special_rows_saved = 1;
  s.stage1.flush_interval = 2;
  s.stage1.best_score = 42;
  s.stage1.best_i = 15;
  s.stage1.best_j = 99;
  return s;
}

TEST(CheckpointEnvelopeTest, IdenticalEnvelopesHaveNoMismatches) {
  EXPECT_TRUE(sample_envelope().mismatches(sample_envelope()).empty());
}

TEST(CheckpointEnvelopeTest, EveryDifferingFieldIsNamed) {
  const CheckpointEnvelope a = sample_envelope();
  // One perturbation per option that options_json writes; the leaf walk below
  // fails if options_json gains a leaf this table does not cover.
  using Perturb = std::function<void(PipelineOptions&)>;
  const std::map<std::string, Perturb> perturb = {
      {"scheme.match", [](PipelineOptions& o) { ++o.scheme.match; }},
      {"scheme.mismatch", [](PipelineOptions& o) { ++o.scheme.mismatch; }},
      {"scheme.gap_first", [](PipelineOptions& o) { ++o.scheme.gap_first; }},
      {"scheme.gap_ext", [](PipelineOptions& o) { ++o.scheme.gap_ext; }},
      {"sra_rows_budget", [](PipelineOptions& o) { ++o.sra_rows_budget; }},
      {"sra_cols_budget", [](PipelineOptions& o) { ++o.sra_cols_budget; }},
      {"grid_stage1.blocks", [](PipelineOptions& o) { ++o.grid_stage1.blocks; }},
      {"grid_stage1.threads", [](PipelineOptions& o) { ++o.grid_stage1.threads; }},
      {"grid_stage1.alpha", [](PipelineOptions& o) { ++o.grid_stage1.alpha; }},
      {"grid_stage1.multiprocessors",
       [](PipelineOptions& o) { ++o.grid_stage1.multiprocessors; }},
      {"grid_stage23.blocks", [](PipelineOptions& o) { ++o.grid_stage23.blocks; }},
      {"grid_stage23.threads", [](PipelineOptions& o) { ++o.grid_stage23.threads; }},
      {"grid_stage23.alpha", [](PipelineOptions& o) { ++o.grid_stage23.alpha; }},
      {"grid_stage23.multiprocessors",
       [](PipelineOptions& o) { ++o.grid_stage23.multiprocessors; }},
      {"max_partition_size", [](PipelineOptions& o) { ++o.max_partition_size; }},
      {"block_pruning", [](PipelineOptions& o) { o.block_pruning = !o.block_pruning; }},
      {"save_special_columns",
       [](PipelineOptions& o) { o.save_special_columns = !o.save_special_columns; }},
      {"kernel", [](PipelineOptions&) { engine::set_kernel_override("legacy"); }},
  };
  std::vector<std::string> leaves;
  collect_leaves(a.options, "", leaves);
  EXPECT_EQ(leaves.size(), perturb.size());
  for (const std::string& leaf : leaves) {
    SCOPED_TRACE(leaf);
    ASSERT_TRUE(perturb.contains(leaf)) << "no perturbation for options leaf " << leaf;
    PipelineOptions options = small_options();
    perturb.at(leaf)(options);
    CheckpointEnvelope b = a;
    b.options = options_json(options);
    engine::reload_kernel_override_from_env();
    const std::vector<std::string> diffs = a.mismatches(b);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_EQ(diffs[0].rfind("options." + leaf + ": checkpoint has ", 0), 0u) << diffs[0];
  }

  CheckpointEnvelope b = a;
  b.s0_digest ^= 1;
  b.s1_length = 241;
  const std::vector<std::string> diffs = a.mismatches(b);
  ASSERT_EQ(diffs.size(), 2u);
  EXPECT_EQ(diffs[0], "s0_digest: checkpoint has \"0123456789abcdef\", this run has "
                      "\"0123456789abcdee\"");
  EXPECT_EQ(diffs[1], "s1_length: checkpoint has 240, this run has 241");

  // The executor cannot change the output, so it is not in the envelope.
  PipelineOptions dataflow = small_options();
  dataflow.executor = engine::ExecutorKind::kDataflow;
  b = a;
  b.options = options_json(dataflow);
  EXPECT_TRUE(a.mismatches(b).empty());
}

TEST(CheckpointManifestTest, SaveLoadRoundTrip) {
  TempDir dir;
  CheckpointManifest manifest(dir.path());
  EXPECT_FALSE(manifest.exists());
  CheckpointState state = sample_state();
  manifest.save(state);
  EXPECT_TRUE(manifest.exists());
  EXPECT_GT(manifest.bytes_written(), 0);
  EXPECT_EQ(manifest.updates(), 1);
  EXPECT_EQ(manifest.load(), state);

  // A later stage with crosspoint lists round-trips too.
  state.stage = CheckpointStage::kStage4;
  state.end_point = Crosspoint{280, 230, 120, dp::CellState::kH};
  state.l2 = {Crosspoint{0, 0, 0, dp::CellState::kH}, state.end_point};
  state.l3 = {Crosspoint{0, 0, 0, dp::CellState::kH},
              Crosspoint{140, 110, 60, dp::CellState::kE}, state.end_point};
  state.special_cols_saved = 3;
  manifest.save(state);
  EXPECT_EQ(manifest.load(), state);
  EXPECT_EQ(manifest.updates(), 2);
}

TEST(CheckpointManifestTest, MissingManifestThrows) {
  TempDir dir;
  CheckpointManifest manifest(dir.path());
  EXPECT_THROW((void)manifest.load(), Error);
}

TEST(CheckpointManifestTest, InvalidJsonRefusedWithDiagnostic) {
  TempDir dir;
  CheckpointManifest manifest(dir.path());
  manifest.save(sample_state());
  write_file(manifest.path(), "{ torn halfway");
  try {
    (void)manifest.load();
    FAIL() << "invalid JSON was not refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("not valid JSON"), std::string::npos) << e.what();
  }
}

TEST(CheckpointManifestTest, BodyTamperFailsCrc) {
  TempDir dir;
  CheckpointManifest manifest(dir.path());
  manifest.save(sample_state());
  std::string text = read_file(manifest.path());
  const auto pos = text.find("\"last_flushed_row\": 16");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 22, "\"last_flushed_row\": 24");
  write_file(manifest.path(), text);
  try {
    (void)manifest.load();
    FAIL() << "tampered body was not refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC-32"), std::string::npos) << e.what();
  }
}

TEST(CheckpointManifestTest, FormatVersionBumpRefused) {
  TempDir dir;
  CheckpointManifest manifest(dir.path());
  manifest.save(sample_state());
  std::string text = read_file(manifest.path());
  const auto pos = text.find("\"format_version\": 2");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 19, "\"format_version\": 1");
  write_file(manifest.path(), text);
  try {
    (void)manifest.load();
    FAIL() << "format version 1 was not refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("format version"), std::string::npos) << e.what();
  }
}

TEST(CheckpointManifestTest, StateInvariantsEnforced) {
  // Flushed row off the strip/flush boundary.
  CheckpointState state = sample_state();
  state.stage1.last_flushed_row = 13;
  EXPECT_THROW(validate_checkpoint_state(state), Error);
  // Stage cursor implies a crosspoint list that is absent.
  state = sample_state();
  state.stage = CheckpointStage::kStage3;
  state.end_point = Crosspoint{280, 230, 120, dp::CellState::kH};
  state.l2.clear();
  EXPECT_THROW(validate_checkpoint_state(state), Error);
  // Valid endpoints around a non-monotone interior crosspoint: column 240
  // lies inside the 300 x 240 matrix but past the end point's column 230.
  const Crosspoint start{0, 0, 0, dp::CellState::kH};
  state.stage = CheckpointStage::kStage4;
  state.l2 = {start, state.end_point};
  state.l3 = {start, Crosspoint{140, 110, 60, dp::CellState::kH}, state.end_point};
  EXPECT_NO_THROW(validate_checkpoint_state(state));
  state.l3[1].j = 240;
  EXPECT_THROW(validate_checkpoint_state(state), Error);
}

// ---------------------------------------------------------------------------
// Pipeline-level crash/resume.
// ---------------------------------------------------------------------------

/// Runs the uninterrupted pipeline and a crash-at-save-k + resume pair on the
/// same problem and asserts byte-identical results. `between_runs`, if set,
/// gets the checkpoint directory after the crash and before the resume.
void expect_resume_equivalence(
    Index crash_after_saves,
    const std::function<void(const std::filesystem::path&)>& between_runs = {}) {
  const auto pair = seq::make_related_pair(300, 290, 4242);
  PipelineOptions options = small_options();
  const PipelineResult reference = align_pipeline(pair.s0, pair.s1, options);
  ASSERT_GT(reference.best_score, 0);
  ASSERT_GT(reference.special_rows_saved, 2);

  TempDir dir;
  options.checkpoint_dir = dir.path() / "ckpt";
  options.checkpoint_crash_after_flushes = crash_after_saves;
  EXPECT_THROW((void)align_pipeline(pair.s0, pair.s1, options), Error);
  if (between_runs) between_runs(options.checkpoint_dir);

  options.checkpoint_crash_after_flushes = 0;
  options.resume = true;
  const PipelineResult resumed = align_pipeline(pair.s0, pair.s1, options);

  EXPECT_EQ(resumed.best_score, reference.best_score);
  EXPECT_EQ(resumed.end_point, reference.end_point);
  EXPECT_EQ(resumed.start_point, reference.start_point);
  EXPECT_TRUE(resumed.alignment.transcript == reference.alignment.transcript);
  EXPECT_EQ(resumed.binary, reference.binary);
  EXPECT_EQ(resumed.special_rows_saved, reference.special_rows_saved);
  EXPECT_TRUE(resumed.resume.resumed);
  EXPECT_EQ(resumed.resume.resumed_stage, 1);
  EXPECT_GT(resumed.resume.resumed_from_row, 0);
  EXPECT_GT(resumed.resume.rows_restored, 0);
  EXPECT_GT(resumed.resume.cells_skipped, 0);
  EXPECT_GT(resumed.resume.checkpoint_updates, 0);
}

TEST(CheckpointResume, KilledAfterFirstSaveMatchesUninterrupted) {
  expect_resume_equivalence(1);
}

TEST(CheckpointResume, KilledAfterThirdSaveMatchesUninterrupted) {
  expect_resume_equivalence(3);
}

TEST(CheckpointResume, StaleSraManifestIgnoredOnResume) {
  // Older builds kept a manifest.bin next to the special-row files. The row
  // files are now the store's only index, so a stale manifest left in the
  // directory must not change what the resumed run computes.
  expect_resume_equivalence(2, [](const std::filesystem::path& checkpoint_dir) {
    write_file(checkpoint_dir / "rows" / "manifest.bin", "stale index of an older build");
  });
}

TEST(CheckpointResume, StageBoundaryResumeMatchesUninterrupted) {
  const auto pair = seq::make_related_pair(300, 290, 777);
  PipelineOptions options = small_options();
  const PipelineResult reference = align_pipeline(pair.s0, pair.s1, options);
  ASSERT_GT(reference.best_score, 0);

  TempDir dir;
  options.checkpoint_dir = dir.path() / "ckpt";
  const PipelineResult full = align_pipeline(pair.s0, pair.s1, options);
  EXPECT_EQ(full.binary, reference.binary);

  // Rewind the completed checkpoint to each stage boundary and resume: every
  // restart must reproduce the uninterrupted alignment byte-for-byte.
  CheckpointManifest manifest(options.checkpoint_dir);
  const CheckpointState done = manifest.load();
  ASSERT_EQ(done.stage, CheckpointStage::kDone);
  options.resume = true;
  for (const CheckpointStage stage :
       {CheckpointStage::kStage2, CheckpointStage::kStage3, CheckpointStage::kStage4,
        CheckpointStage::kStage5}) {
    CheckpointState rewound = done;
    rewound.stage = stage;
    manifest.save(rewound);
    const PipelineResult resumed = align_pipeline(pair.s0, pair.s1, options);
    EXPECT_EQ(resumed.best_score, reference.best_score);
    EXPECT_EQ(resumed.binary, reference.binary) << "stage " << static_cast<int>(stage);
    EXPECT_TRUE(resumed.resume.resumed);
    EXPECT_EQ(resumed.resume.resumed_stage, static_cast<int>(stage));
    EXPECT_EQ(resumed.resume.cells_skipped,
              static_cast<WideScore>(pair.s0.size()) * static_cast<WideScore>(pair.s1.size()));
  }
}

TEST(CheckpointResume, DifferentSequenceRefused) {
  const auto pair = seq::make_related_pair(300, 290, 31);
  const auto other = seq::make_related_pair(300, 290, 32);
  PipelineOptions options = small_options();
  TempDir dir;
  options.checkpoint_dir = dir.path() / "ckpt";
  options.checkpoint_crash_after_flushes = 1;
  EXPECT_THROW((void)align_pipeline(pair.s0, pair.s1, options), Error);
  options.checkpoint_crash_after_flushes = 0;
  options.resume = true;
  try {
    (void)align_pipeline(other.s0, pair.s1, options);
    FAIL() << "resume with a different sequence was not refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("digest"), std::string::npos) << e.what();
  }
}

TEST(CheckpointResume, DifferentOptionsRefused) {
  const auto pair = seq::make_related_pair(300, 290, 33);
  PipelineOptions options = small_options();
  TempDir dir;
  options.checkpoint_dir = dir.path() / "ckpt";
  options.checkpoint_crash_after_flushes = 1;
  EXPECT_THROW((void)align_pipeline(pair.s0, pair.s1, options), Error);
  options.checkpoint_crash_after_flushes = 0;
  options.resume = true;
  options.scheme.gap_ext = 1;
  try {
    (void)align_pipeline(pair.s0, pair.s1, options);
    FAIL() << "resume with a different scheme was not refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("scheme.gap_ext"), std::string::npos) << e.what();
  }
}

TEST(CheckpointResume, FreshRunOverExistingCheckpointRefused) {
  const auto pair = seq::make_related_pair(300, 290, 34);
  PipelineOptions options = small_options();
  TempDir dir;
  options.checkpoint_dir = dir.path() / "ckpt";
  options.checkpoint_crash_after_flushes = 1;
  EXPECT_THROW((void)align_pipeline(pair.s0, pair.s1, options), Error);
  options.checkpoint_crash_after_flushes = 0;
  EXPECT_THROW((void)align_pipeline(pair.s0, pair.s1, options), Error);
}

TEST(CheckpointResume, ResumeWithoutManifestRefused) {
  const auto pair = seq::make_related_pair(120, 110, 35);
  PipelineOptions options = small_options();
  TempDir dir;
  options.checkpoint_dir = dir.path() / "ckpt";
  options.resume = true;
  EXPECT_THROW((void)align_pipeline(pair.s0, pair.s1, options), Error);
}

TEST(CheckpointResume, ResumeOfCompletedRunRefused) {
  const auto pair = seq::make_related_pair(200, 190, 36);
  PipelineOptions options = small_options();
  TempDir dir;
  options.checkpoint_dir = dir.path() / "ckpt";
  (void)align_pipeline(pair.s0, pair.s1, options);
  options.resume = true;
  try {
    (void)align_pipeline(pair.s0, pair.s1, options);
    FAIL() << "resume of a completed run was not refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("completed"), std::string::npos) << e.what();
  }
}

TEST(CheckpointResume, ManifestReferencingMissingSraRowRefused) {
  const auto pair = seq::make_related_pair(300, 290, 37);
  PipelineOptions options = small_options();
  TempDir dir;
  options.checkpoint_dir = dir.path() / "ckpt";
  options.checkpoint_crash_after_flushes = 2;
  EXPECT_THROW((void)align_pipeline(pair.s0, pair.s1, options), Error);
  // Remove one referenced special row: the reopened store no longer holds as
  // many rows as the checkpoint records, and the resume refuses.
  ASSERT_TRUE(std::filesystem::remove(options.checkpoint_dir / "rows" / "sra-0.bin"));
  options.checkpoint_crash_after_flushes = 0;
  options.resume = true;
  try {
    (void)align_pipeline(pair.s0, pair.s1, options);
    FAIL() << "missing special row was not refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("missing"), std::string::npos) << e.what();
  }
}

TEST(CheckpointResume, ResumedRunReportValidates) {
  const auto pair = seq::make_related_pair(300, 290, 38);
  PipelineOptions options = small_options();
  TempDir dir;
  options.checkpoint_dir = dir.path() / "ckpt";
  options.checkpoint_crash_after_flushes = 2;
  EXPECT_THROW((void)align_pipeline(pair.s0, pair.s1, options), Error);
  options.checkpoint_crash_after_flushes = 0;
  options.resume = true;
  obs::Telemetry telemetry;
  options.telemetry = &telemetry;
  const PipelineResult resumed = align_pipeline(pair.s0, pair.s1, options);
  telemetry.finish();

  obs::ReportContext ctx;
  ctx.s0_name = "s0";
  ctx.s0_length = static_cast<Index>(pair.s0.size());
  ctx.s1_name = "s1";
  ctx.s1_length = static_cast<Index>(pair.s1.size());
  ctx.options = &options;
  ctx.result = &resumed;
  ctx.telemetry = &telemetry;
  const obs::Json report = obs::build_run_report(ctx);
  const std::vector<std::string> problems = obs::validate_run_report(report);
  EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());
  const obs::Json* resume = report.find("resume");
  ASSERT_NE(resume, nullptr);
  EXPECT_TRUE(resume->at("resumed").as_bool());
  EXPECT_GT(resume->at("cells_skipped").as_int(), 0);
}

TEST(CheckpointResume, EmptyAlignmentCheckpointCompletes) {
  // All-N sequences never match: best score 0, the pipeline short-circuits,
  // and the checkpoint must still land on kDone.
  seq::Sequence s0 = seq::Sequence::from_string("n0", "nnnnnnnnnnnnnnnn");
  seq::Sequence s1 = seq::Sequence::from_string("n1", "nnnnnnnnnnnnnnnn");
  PipelineOptions options = small_options();
  TempDir dir;
  options.checkpoint_dir = dir.path() / "ckpt";
  const PipelineResult result = align_pipeline(s0, s1, options);
  EXPECT_TRUE(result.empty);
  CheckpointManifest manifest(options.checkpoint_dir);
  EXPECT_EQ(manifest.load().stage, CheckpointStage::kDone);
}

}  // namespace
}  // namespace cudalign::core
