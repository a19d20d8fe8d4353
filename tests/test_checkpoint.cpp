// Checkpoint/resume: the manifest format (round trip, tamper detection,
// envelope matching) and the pipeline property that matters — a run killed
// after any durable special row or stage boundary and resumed produces the
// byte-identical alignment of an uninterrupted run, while corrupt or
// mismatched checkpoints are refused.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <map>

#include "common/io_util.hpp"
#include "core/checkpoint.hpp"
#include "core/pipeline.hpp"
#include "core/stages.hpp"
#include "engine/executor.hpp"
#include "engine/kernel_registry.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "test_util.hpp"

namespace cudalign::core {
namespace {

using test::tiny_grid;

PipelineOptions small_options() {
  PipelineOptions o;
  o.grid_stage1 = tiny_grid(3, 4, 2);
  o.grid_stage23 = tiny_grid(2, 4, 2);
  // A roomy rows budget gives flush interval 1: one special row (and thus
  // one crash point) per strip, plenty of them on small problems.
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
  s.stage1.special_rows_saved = 17;
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
      {"grid_stage1.min_chunk_cols",
       [](PipelineOptions& o) { ++o.grid_stage1.min_chunk_cols; }},
      {"grid_stage23.blocks", [](PipelineOptions& o) { ++o.grid_stage23.blocks; }},
      {"grid_stage23.threads", [](PipelineOptions& o) { ++o.grid_stage23.threads; }},
      {"grid_stage23.alpha", [](PipelineOptions& o) { ++o.grid_stage23.alpha; }},
      {"grid_stage23.min_chunk_cols",
       [](PipelineOptions& o) { ++o.grid_stage23.min_chunk_cols; }},
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

  // There is one wavefront schedule, so the envelope records none.
  EXPECT_EQ(options_json(small_options()).find("executor"), nullptr);
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
  const std::string field = "\"special_rows_saved\": 17";
  const auto pos = text.find(field);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, field.size(), "\"special_rows_saved\": 18");
  write_file(manifest.path(), text);
  try {
    (void)manifest.load();
    FAIL() << "tampered body was not refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC-32"), std::string::npos) << e.what();
  }
}

/// Saves sample_state(), rewrites the manifest's format version to
/// `version` and returns the message load() refuses it with ("" if it loads).
std::string load_error_as_version(std::int64_t version) {
  TempDir dir;
  CheckpointManifest manifest(dir.path());
  manifest.save(sample_state());
  std::string text = read_file(manifest.path());
  const std::string current = "\"format_version\": " + std::to_string(kCheckpointFormatVersion);
  const auto pos = text.find(current);
  EXPECT_NE(pos, std::string::npos);
  if (pos == std::string::npos) return "";
  text.replace(pos, current.size(), "\"format_version\": " + std::to_string(version));
  write_file(manifest.path(), text);
  try {
    (void)manifest.load();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(CheckpointManifestTest, FormatVersionBumpRefused) {
  const std::string error = load_error_as_version(1);
  EXPECT_NE(error.find("format version"), std::string::npos) << "format version 1: " << error;
}

TEST(CheckpointManifestTest, Version2ManifestRefusedNamingBothVersions) {
  // A v2 manifest carries no pruning state, so a pruned run cannot resume
  // from it exactly: it is refused, not reinterpreted.
  ASSERT_EQ(kCheckpointFormatVersion, 5);
  const std::string error = load_error_as_version(2);
  EXPECT_NE(error.find("format version 2"), std::string::npos) << error;
  EXPECT_NE(error.find("reads version 5"), std::string::npos) << error;
}

TEST(CheckpointManifestTest, Version3ManifestRefusedNamingBothVersions) {
  // A v3 manifest holds a Stage-1 cursor (last_flushed_row and the pruning
  // state) that v4 and v5 keep in the special rows' trailers instead.
  const std::string error = load_error_as_version(3);
  EXPECT_NE(error.find("format version 3"), std::string::npos) << error;
  EXPECT_NE(error.find("reads version 5"), std::string::npos) << error;
}

TEST(CheckpointManifestTest, Version4ManifestRefusedNamingBothVersions) {
  // A v4 checkpoint's special rows carry a per-chunk pruning closure row
  // that v5 trailers do not: it is refused when the manifest loads, not
  // partway through a resume.
  const std::string error = load_error_as_version(4);
  EXPECT_NE(error.find("format version 4"), std::string::npos) << error;
  EXPECT_NE(error.find("reads version 5"), std::string::npos) << error;
}

// The state e2ebench's checkpoint-save probe writes on every benchmark run: a
// Stage-1 state with only the envelope lengths, the row counts and the best.
TEST(CheckpointManifestTest, BenchmarkProbeStateSaves) {
  CheckpointState state;
  state.envelope.s0_length = 100000;
  state.envelope.s1_length = 99000;
  state.stage1.special_rows_saved = 199;
  state.stage1.flush_interval = 1;
  state.stage1.best_score = 95313;
  state.stage1.best_i = 99990;
  state.stage1.best_j = 98995;
  TempDir dir;
  CheckpointManifest manifest(dir.path());
  ASSERT_NO_THROW(manifest.save(state));
  EXPECT_EQ(manifest.load(), state);
  // The manifest holds no Stage-1 cursor.
  const std::string text = read_file(manifest.path());
  EXPECT_EQ(text.find("last_flushed_row"), std::string::npos);
  EXPECT_EQ(text.find("prune"), std::string::npos);
}

TEST(CheckpointManifestTest, StateInvariantsEnforced) {
  // Negative stage-1 counts.
  CheckpointState state = sample_state();
  state.stage1.special_rows_saved = -1;
  EXPECT_THROW(validate_checkpoint_state(state), Error);
  state = sample_state();
  state.stage1.flush_interval = -2;
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

/// The special-row files of the SRA store in `dir` (name -> contents).
std::map<std::string, std::string> read_rows(const std::filesystem::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("sra-", 0) == 0) files[name] = read_file(entry.path());
  }
  return files;
}

/// A related pair run without interruption (pruned: the default): the
/// result, and the special-row files and manifest save count of the same
/// run with a checkpoint directory.
struct Uninterrupted {
  seq::SequencePair pair = seq::make_related_pair(300, 290, 4242);
  PipelineResult reference;
  std::map<std::string, std::string> rows;
  Index checkpoint_updates = 0;
};

Uninterrupted run_uninterrupted(const std::filesystem::path& dir) {
  Uninterrupted u;
  PipelineOptions options = small_options();
  u.reference = align_pipeline(u.pair.s0, u.pair.s1, options);
  EXPECT_GT(u.reference.best_score, 0);
  EXPECT_GT(u.reference.special_rows_saved, 3);
  EXPECT_GT(u.reference.stages[0].pruned_cells, 0);
  options.checkpoint_dir = dir;
  const PipelineResult whole = align_pipeline(u.pair.s0, u.pair.s1, options);
  EXPECT_EQ(whole.binary, u.reference.binary);
  u.rows = read_rows(dir / "rows");
  EXPECT_EQ(static_cast<Index>(u.rows.size()), u.reference.special_rows_saved);
  u.checkpoint_updates = whole.resume.checkpoint_updates;
  return u;
}

/// Crashes a checkpointed run of `u.pair` in `dir` right after its
/// `crash_after`th durable special row, hands `dir` to `between_runs` (if
/// set), resumes, and asserts the resumed run is byte-identical to the
/// uninterrupted one, down to every special-row file. Returns the resumed
/// result.
PipelineResult crash_and_resume(
    const Uninterrupted& u, const std::filesystem::path& dir, Index crash_after,
    const std::function<void(const std::filesystem::path&)>& between_runs = {}) {
  PipelineOptions options = small_options();
  options.checkpoint_dir = dir;
  options.checkpoint_crash_after_flushes = crash_after;
  EXPECT_THROW((void)align_pipeline(u.pair.s0, u.pair.s1, options), Error);
  EXPECT_EQ(static_cast<Index>(read_rows(dir / "rows").size()), crash_after);
  if (between_runs) between_runs(dir);

  options.checkpoint_crash_after_flushes = 0;
  options.resume = true;
  const PipelineResult resumed = align_pipeline(u.pair.s0, u.pair.s1, options);
  EXPECT_EQ(resumed.best_score, u.reference.best_score);
  EXPECT_EQ(resumed.end_point, u.reference.end_point);
  EXPECT_EQ(resumed.start_point, u.reference.start_point);
  EXPECT_TRUE(resumed.alignment.transcript == u.reference.alignment.transcript);
  EXPECT_EQ(resumed.binary, u.reference.binary);
  EXPECT_EQ(resumed.special_rows_saved, u.reference.special_rows_saved);
  EXPECT_TRUE(read_rows(dir / "rows") == u.rows)
      << "resumed special rows differ from the uninterrupted run's";
  EXPECT_TRUE(resumed.resume.resumed);
  EXPECT_EQ(resumed.resume.resumed_stage, 1);
  // The resumed run saves the manifest only at the five stage boundaries.
  EXPECT_EQ(resumed.resume.checkpoint_updates, 5);
  return resumed;
}

/// Kill after the `crash_after`th durable row, then resume from that row.
void expect_resume_equivalence(
    Index crash_after,
    const std::function<void(const std::filesystem::path&)>& between_runs = {}) {
  TempDir dir;
  const Uninterrupted u = run_uninterrupted(dir.path() / "whole");
  const PipelineResult resumed =
      crash_and_resume(u, dir.path() / "ckpt", crash_after, between_runs);
  const Index step = small_options().grid_stage1.strip_rows();  // Flush interval 1.
  EXPECT_EQ(resumed.resume.resumed_from_row, crash_after * step);
  EXPECT_EQ(resumed.resume.rows_restored, crash_after);
  EXPECT_EQ(resumed.resume.cells_skipped,
            static_cast<WideScore>(crash_after * step) * static_cast<WideScore>(u.pair.s1.size()));
}

TEST(CheckpointResume, KilledAfterFirstSaveMatchesUninterrupted) {
  expect_resume_equivalence(1);
}

TEST(CheckpointResume, KilledAfterThirdSaveMatchesUninterrupted) {
  expect_resume_equivalence(3);
}

// Every durable special row is a checkpoint: a kill after any of them
// resumes to the uninterrupted run's alignment and row files.
TEST(CheckpointResume, KilledAtEveryFlushRowMatchesUninterrupted) {
  TempDir dir;
  const Uninterrupted u = run_uninterrupted(dir.path() / "whole");
  // One save before Stage 1 and one at each of the five stage boundaries.
  EXPECT_EQ(u.checkpoint_updates, 6);
  for (Index k = 1; k <= u.reference.special_rows_saved; ++k) {
    SCOPED_TRACE("killed after durable row " + std::to_string(k));
    const auto ckpt = dir.path() / ("ckpt-" + std::to_string(k));
    EXPECT_EQ(crash_and_resume(u, ckpt, k).resume.rows_restored, k);
    std::filesystem::remove_all(ckpt);
  }
}

// Rows whose pruned segments are left off disk (SRA format v4) are
// checkpoints like any other: a resume from them recomputes the same
// alignment and writes the same row files, absent segments included.
TEST(CheckpointResume, KilledAmongSparseRowsMatchesUninterrupted) {
  seq::MutationProfile close = seq::MutationProfile::related();
  close.substitution_rate = 0.005;
  const auto pair = seq::make_related_pair(2000, 20000, 4747, close);
  PipelineOptions options = small_options();
  options.grid_stage1 = tiny_grid(32, 8, 2);
  options.sra_rows_budget = 4 << 20;
  TempDir dir;
  options.checkpoint_dir = dir.path() / "whole";
  const PipelineResult whole = align_pipeline(pair.s0, pair.s1, options);
  ASSERT_GT(whole.special_rows_saved, 4);
  EXPECT_LT(whole.sra_stored_peak_bytes * 2, whole.sra_peak_bytes);
  const auto rows = read_rows(options.checkpoint_dir / "rows");

  const Index crash_after = whole.special_rows_saved / 2;
  options.checkpoint_dir = dir.path() / "ckpt";
  options.checkpoint_crash_after_flushes = crash_after;
  EXPECT_THROW((void)align_pipeline(pair.s0, pair.s1, options), Error);
  options.checkpoint_crash_after_flushes = 0;
  options.resume = true;
  const PipelineResult resumed = align_pipeline(pair.s0, pair.s1, options);
  EXPECT_EQ(resumed.resume.rows_restored, crash_after);
  EXPECT_EQ(resumed.binary, whole.binary);
  EXPECT_TRUE(read_rows(options.checkpoint_dir / "rows") == rows)
      << "resumed special rows differ from the uninterrupted run's";
}

TEST(CheckpointResume, StaleSraManifestIgnoredOnResume) {
  // Older builds kept a manifest.bin next to the special-row files. The row
  // files are now the store's only index, so a stale manifest left in the
  // directory must not change what the resumed run computes.
  expect_resume_equivalence(2, [](const std::filesystem::path& checkpoint_dir) {
    write_file(checkpoint_dir / "rows" / "manifest.bin", "stale index of an older build");
  });
}

// Deleting only the newest rows loses work, not correctness: the resume
// point moves to the highest row left.
TEST(CheckpointResume, DeletedNewestRowsMoveTheResumePointEarlier) {
  TempDir dir;
  const Uninterrupted u = run_uninterrupted(dir.path() / "whole");
  const PipelineResult resumed =
      crash_and_resume(u, dir.path() / "ckpt", 4, [](const std::filesystem::path& ckpt) {
        ASSERT_TRUE(std::filesystem::remove(ckpt / "rows" / "sra-3.bin"));
        ASSERT_TRUE(std::filesystem::remove(ckpt / "rows" / "sra-2.bin"));
      });
  EXPECT_EQ(resumed.resume.rows_restored, 2);
  EXPECT_EQ(resumed.resume.resumed_from_row, 2 * small_options().grid_stage1.strip_rows());
}

/// Crashes a checkpointed run of a related pair after `crash_after` durable
/// rows, lets `tamper` alter the checkpoint directory, and returns the message
/// the resume is refused with ("" if it is not).
std::string resume_error_after(
    Index crash_after, const std::function<void(const std::filesystem::path&)>& tamper,
    bool block_pruning = true) {
  const auto pair = seq::make_related_pair(300, 290, 4343);
  PipelineOptions options = small_options();
  options.block_pruning = block_pruning;
  TempDir dir;
  options.checkpoint_dir = dir.path() / "ckpt";
  options.checkpoint_crash_after_flushes = crash_after;
  EXPECT_THROW((void)align_pipeline(pair.s0, pair.s1, options), Error);
  tamper(options.checkpoint_dir);
  options.checkpoint_crash_after_flushes = 0;
  options.resume = true;
  try {
    (void)align_pipeline(pair.s0, pair.s1, options);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// Rewrites the newest special row of the checkpoint in `dir` with its
/// trailer passed through `edit`, as a correctly CRC'd row file.
void rewrite_newest_trailer(const std::filesystem::path& dir,
                            const std::function<void(std::vector<std::int64_t>&)>& edit) {
  sra::SpecialRowsArea rows(dir / "rows", small_options().sra_rows_budget,
                            sra::Durability::kDurable);
  const std::size_t newest = rows.group_members(kRowsGroup).back();
  const sra::RowKey key = rows.key(newest);
  std::vector<std::int64_t> trailer;
  const std::vector<engine::BusCell> cells = rows.get(newest, &trailer);
  edit(trailer);
  rows.drop_row(newest);
  (void)rows.put(key, cells, trailer);
}

TEST(CheckpointResume, FlippedTrailerByteRefusedNamingTheRow) {
  const std::string error = resume_error_after(2, [](const std::filesystem::path& dir) {
    // The trailer ends the file: flip a byte of its last value.
    std::fstream io(dir / "rows" / "sra-1.bin", std::ios::binary | std::ios::in | std::ios::out);
    io.seekg(-3, std::ios::end);
    char byte = 0;
    io.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5A);
    io.seekp(-3, std::ios::end);
    io.write(&byte, 1);
  });
  EXPECT_NE(error.find("CRC-32"), std::string::npos) << error;
  EXPECT_NE(error.find("sra-1.bin"), std::string::npos) << error;
  EXPECT_NE(error.find("position 16"), std::string::npos) << error;
}

TEST(CheckpointResume, DeletedMiddleRowRefusedNamingItsPosition) {
  const std::string error = resume_error_after(3, [](const std::filesystem::path& dir) {
    ASSERT_TRUE(std::filesystem::remove(dir / "rows" / "sra-1.bin"));
  });
  EXPECT_NE(error.find("special row 16 is missing"), std::string::npos) << error;
}

// A special row's trailer has one length per run kind: a pruned run needs
// the best and exactly kPruneLag lagged bests, an unpruned run the best
// alone. Any other length is refused, naming the row.
TEST(CheckpointManifestTest, PruningStateIsAllOrNothing) {
  const auto refusal = [](bool block_pruning,
                          const std::function<void(std::vector<std::int64_t>&)>& edit) {
    return resume_error_after(
        2, [&](const std::filesystem::path& dir) { rewrite_newest_trailer(dir, edit); },
        block_pruning);
  };
  // Pruned: the best without any pruning state, one lagged best short or
  // one word long. Unpruned: pruning state it cannot use.
  for (const std::string& error :
       {refusal(true, [](std::vector<std::int64_t>& t) { t.resize(3); }),
        refusal(true, [](std::vector<std::int64_t>& t) { t.pop_back(); }),
        refusal(true, [](std::vector<std::int64_t>& t) { t.push_back(0); }),
        refusal(false, [](std::vector<std::int64_t>& t) { t.push_back(0); })}) {
    EXPECT_NE(error.find("special row 16 carries"), std::string::npos) << error;
  }
  // The trailers as written resume, pruned or not.
  for (const bool block_pruning : {true, false}) {
    EXPECT_EQ(refusal(block_pruning, [](std::vector<std::int64_t>&) {}), "");
  }
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

// A manifest from before the grid's fourth field became min_chunk_cols
// records the GPU's `multiprocessors` instead. Its grids tiled differently,
// so the envelope check refuses it and names both keys.
TEST(CheckpointResume, ManifestWithTheMultiprocessorsGridKeyRefused) {
  const auto pair = seq::make_related_pair(300, 290, 36);
  PipelineOptions options = small_options();
  TempDir dir;
  options.checkpoint_dir = dir.path() / "ckpt";
  options.checkpoint_crash_after_flushes = 1;
  EXPECT_THROW((void)align_pipeline(pair.s0, pair.s1, options), Error);
  CheckpointManifest manifest(options.checkpoint_dir);
  CheckpointState state = manifest.load();
  const auto old_grid = [](const engine::GridSpec& g) {
    return obs::Json::object()
        .set("blocks", g.blocks)
        .set("threads", g.threads)
        .set("alpha", g.alpha)
        .set("multiprocessors", 30);
  };
  state.envelope.options.set("grid_stage1", old_grid(options.grid_stage1))
      .set("grid_stage23", old_grid(options.grid_stage23));
  manifest.save(state);
  options.checkpoint_crash_after_flushes = 0;
  options.resume = true;
  try {
    (void)align_pipeline(pair.s0, pair.s1, options);
    FAIL() << "a manifest with the multiprocessors grid key was not refused";
  } catch (const Error& e) {
    const std::string what = e.what();
    for (const char* line : {"options.grid_stage1.min_chunk_cols: checkpoint has absent",
                             "options.grid_stage1.multiprocessors: checkpoint has 30",
                             "options.grid_stage23.min_chunk_cols: checkpoint has absent"}) {
      EXPECT_NE(what.find(line), std::string::npos) << line << "\n" << what;
    }
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
  // Remove the first special row: the rows left no longer start at the first
  // flush row, and the resume refuses, naming the missing one.
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
