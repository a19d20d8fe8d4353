// End-to-end pipeline properties: for every configuration the pipeline's
// alignment must be a *valid* alignment whose score equals the full-matrix
// Smith-Waterman optimum — the paper's core claim (optimal alignment in
// linear space).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>

#include "baseline/full_matrix.hpp"
#include "check/bus_audit.hpp"
#include "common/io_util.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "engine/executor.hpp"
#include "engine/kernel_registry.hpp"
#include "obs/telemetry.hpp"
#include "sra/sra.hpp"
#include "test_util.hpp"

namespace cudalign::core {
namespace {

using test::tiny_grid;

PipelineOptions small_options() {
  PipelineOptions o;
  o.grid_stage1 = tiny_grid(3, 4, 2);
  o.grid_stage23 = tiny_grid(2, 4, 2);
  o.sra_rows_budget = 1 << 20;
  o.sra_cols_budget = 1 << 20;
  o.max_partition_size = 16;
  return o;
}

struct PipelineCase {
  Index n0, n1;
  bool related;
  Index island;
  int scheme_index;
  Index max_partition;
  std::int64_t rows_budget;
  std::uint64_t seed;
};

class PipelineEndToEnd : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineEndToEnd, OptimalScoreAndValidAlignment) {
  const auto p = GetParam();
  const auto pair = p.related ? seq::make_related_pair(p.n0, p.n1, p.seed)
                              : seq::make_unrelated_pair(p.n0, p.n1, p.island, p.seed);
  PipelineOptions options = small_options();
  options.scheme = test::test_schemes()[static_cast<std::size_t>(p.scheme_index)];
  options.max_partition_size = p.max_partition;
  options.sra_rows_budget = p.rows_budget;

  const PipelineResult result = align_pipeline(pair.s0, pair.s1, options);
  const auto reference =
      baseline::align_full_matrix(pair.s0.bases(), pair.s1.bases(), options.scheme);

  EXPECT_EQ(result.best_score, reference.alignment.score);
  if (result.best_score == 0) {
    EXPECT_TRUE(result.empty);
    return;
  }
  EXPECT_EQ(result.alignment.score, reference.alignment.score);
  EXPECT_NO_THROW(
      alignment::validate(result.alignment, pair.s0.bases(), pair.s1.bases(), options.scheme));
  // End point agrees with the quadratic search (same tie-break).
  EXPECT_EQ(result.end_point.i, reference.alignment.i1);
  EXPECT_EQ(result.end_point.j, reference.alignment.j1);
  // Stage 6 reconstruction agrees.
  ASSERT_TRUE(result.visualization.has_value());
  EXPECT_EQ(result.visualization->composition.total_score(), result.alignment.score);
}

std::vector<PipelineCase> pipeline_cases() {
  std::vector<PipelineCase> cases;
  std::uint64_t seed = 90000;
  // Related pairs across schemes and partition sizes.
  for (int s = 0; s < 4; ++s) {
    cases.push_back(PipelineCase{230, 240, true, 0, s, 16, 1 << 20, seed++});
  }
  // Partition-size extremes.
  cases.push_back(PipelineCase{260, 250, true, 0, 0, 4, 1 << 20, seed++});
  cases.push_back(PipelineCase{260, 250, true, 0, 0, 64, 1 << 20, seed++});
  // Tight SRA budgets (few special rows; stage 2 covers big strips).
  cases.push_back(PipelineCase{300, 200, true, 0, 0, 16, 8 * 201 * 3, seed++});
  // Unrelated pairs (short island alignments).
  cases.push_back(PipelineCase{180, 220, false, 25, 0, 16, 1 << 20, seed++});
  cases.push_back(PipelineCase{150, 150, false, 0, 0, 16, 1 << 20, seed++});
  // Skewed aspect ratios.
  cases.push_back(PipelineCase{80, 500, true, 0, 0, 16, 1 << 20, seed++});
  cases.push_back(PipelineCase{500, 80, true, 0, 0, 16, 1 << 20, seed++});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PipelineEndToEnd, ::testing::ValuesIn(pipeline_cases()),
                         [](const ::testing::TestParamInfo<PipelineCase>& tpi) {
                           const auto& p = tpi.param;
                           std::string name = p.related ? "related" : "unrelated";
                           name += "_";
                           name += std::to_string(p.n0);
                           name += "x";
                           name += std::to_string(p.n1);
                           name += "_s";
                           name += std::to_string(p.scheme_index);
                           name += "_mp";
                           name += std::to_string(p.max_partition);
                           name += "_b";
                           name += std::to_string(p.rows_budget);
                           return name;
                         });

// Fuzz: random sizes, regimes, budgets, grids and partition caps; the
// pipeline must stay optimal and valid in every drawn configuration.
class PipelineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

struct FuzzCase {
  seq::SequencePair pair;
  PipelineOptions options;
};

FuzzCase draw_fuzz_case(std::uint64_t seed) {
  Rng rng(seed * 7919);
  const Index n0 = 40 + static_cast<Index>(rng.below(360));
  const Index n1 = 40 + static_cast<Index>(rng.below(360));
  const bool related = rng.chance(0.6);
  const auto island = static_cast<Index>(rng.below(static_cast<std::uint64_t>(
      std::min(n0, n1) / 2 + 1)));
  FuzzCase c{related ? seq::make_related_pair(n0, n1, rng.next())
                     : seq::make_unrelated_pair(n0, n1, island, rng.next()),
             PipelineOptions{}};

  PipelineOptions& options = c.options;
  options.scheme = test::test_schemes()[rng.below(4)];
  options.grid_stage1 = tiny_grid(1 + static_cast<Index>(rng.below(6)),
                                  1 + static_cast<Index>(rng.below(6)),
                                  1 + static_cast<Index>(rng.below(3)));
  options.grid_stage23 = tiny_grid(1 + static_cast<Index>(rng.below(4)),
                                   1 + static_cast<Index>(rng.below(6)),
                                   1 + static_cast<Index>(rng.below(3)));
  options.max_partition_size = 4 + static_cast<Index>(rng.below(60));
  options.sra_rows_budget = 8 * (n1 + 1) * (1 + static_cast<std::int64_t>(rng.below(20)));
  options.sra_cols_budget = options.sra_rows_budget;
  options.block_pruning = rng.chance(0.4);
  options.save_special_columns = rng.chance(0.8);
  return c;
}

TEST_P(PipelineFuzz, RandomConfigurationStaysOptimal) {
  const FuzzCase c = draw_fuzz_case(GetParam());
  const seq::SequencePair& pair = c.pair;
  const PipelineOptions& options = c.options;

  const PipelineResult result = align_pipeline(pair.s0, pair.s1, options);
  const auto reference =
      baseline::align_full_matrix(pair.s0.bases(), pair.s1.bases(), options.scheme);
  ASSERT_EQ(result.best_score, reference.alignment.score);
  if (result.best_score == 0) {
    EXPECT_TRUE(result.empty);
    return;
  }
  EXPECT_EQ(result.alignment.score, reference.alignment.score);
  EXPECT_NO_THROW(
      alignment::validate(result.alignment, pair.s0.bases(), pair.s1.bases(), options.scheme));
  for (const Partition& p : partitions_of(
           CrosspointList{result.start_point,
                          Crosspoint{result.end_point.i, result.end_point.j, result.best_score,
                                     dp::CellState::kH}})) {
    EXPECT_GE(p.height(), 0);
  }
}

/// What Stages 1-5 produce, run stage by stage as align_pipeline chains
/// them (Stage 1 pruned as `options` says), with goal pruning on or off in
/// Stages 2-4.
struct Traceback {
  CrosspointList l2, l3, l4;
  alignment::BinaryAlignment binary;
  std::array<engine::Tally, 3> tallies{};  ///< Stages 2, 3 and 4.
};

Traceback run_traceback(const seq::SequencePair& pair, const PipelineOptions& options,
                        bool goal_pruning, ThreadPool* pool = nullptr) {
  const seq::SequenceView s0 = pair.s0.bases();
  const seq::SequenceView s1 = pair.s1.bases();
  TempDir dir("goal-pruning");
  sra::SpecialRowsArea rows(dir.path() / "rows", options.sra_rows_budget);
  sra::SpecialRowsArea cols(dir.path() / "cols", options.sra_cols_budget);
  Traceback out;
  Stage1Config c1;
  c1.scheme = options.scheme;
  c1.grid = options.grid_stage1;
  c1.block_pruning = options.block_pruning;
  c1.rows_area = &rows;
  c1.pool = pool;
  const Stage1Result st1 = run_stage1(s0, s1, c1);
  if (st1.end_point.score == 0) return out;

  Stage2Config c2;
  c2.scheme = options.scheme;
  c2.grid = options.grid_stage23;
  c2.rows_area = &rows;
  c2.cols_area = options.save_special_columns ? &cols : nullptr;
  c2.block_pruning = goal_pruning;
  c2.pool = pool;
  const Stage2Result st2 = run_stage2(s0, s1, st1.end_point, c2);
  out.l2 = st2.crosspoints;
  out.tallies[0] = st2.stats;

  out.l3 = out.l2;
  if (st2.special_cols_saved > 0) {
    Stage3Config c3;
    c3.scheme = options.scheme;
    c3.grid = options.grid_stage23;
    c3.cols_area = &cols;
    c3.block_pruning = goal_pruning;
    c3.pool = pool;
    const Stage3Result st3 = run_stage3(s0, s1, out.l2, c3);
    out.l3 = st3.crosspoints;
    out.tallies[1] = st3.stats;
  }

  Stage4Config c4;
  c4.scheme = options.scheme;
  c4.max_partition_size = options.max_partition_size;
  c4.block_pruning = goal_pruning;
  c4.pool = pool;
  const Stage4Result st4 = run_stage4(s0, s1, out.l3, c4);
  out.l4 = st4.crosspoints;
  out.tallies[2] = st4.stats;

  Stage5Config c5;
  c5.scheme = options.scheme;
  c5.pool = pool;
  out.binary = run_stage5(s0, s1, out.l4, c5).binary;
  return out;
}

/// Goal pruning on against off: the same L_2, L_3, L_4 and binary alignment.
/// Returns the pruned run's tallies of Stages 2-4.
std::array<engine::Tally, 3> expect_goal_pruning_exact(const seq::SequencePair& pair,
                                                       const PipelineOptions& options,
                                                       const std::string& label,
                                                       ThreadPool* pool = nullptr) {
  const Traceback all = run_traceback(pair, options, false, pool);
  const Traceback pruned = run_traceback(pair, options, true, pool);
  EXPECT_EQ(pruned.l2, all.l2) << label;
  EXPECT_EQ(pruned.l3, all.l3) << label;
  EXPECT_EQ(pruned.l4, all.l4) << label;
  EXPECT_TRUE(pruned.binary == all.binary) << label;
  for (const engine::Tally& t : all.tallies) EXPECT_EQ(t.pruned_tiles, 0) << label;
  return pruned.tallies;
}

TEST_P(PipelineFuzz, GoalPruningKeepsEveryCrosspoint) {
  const FuzzCase c = draw_fuzz_case(GetParam());
  (void)expect_goal_pruning_exact(c.pair, c.options, "seed " + std::to_string(GetParam()));
}

// Pairs rich in co-optimal paths: stretches of tandem repeats of a short
// unit between random flanks. s1 gains or loses whole units in each repeat,
// and sometimes a long random insertion at a unit boundary, so a gap run can
// sit at many rows or columns at one score. Point mutations beside the runs
// add paths that score close to them, such as closing a run and reopening
// it a few bases on. Stage 2 saves a special column at every strip boundary
// (a budget for all of them and few special rows), so a partition holds
// several.
FuzzCase draw_co_optimal_case(std::uint64_t seed) {
  Rng rng(seed * 104729);
  const auto bases = [&](std::uint64_t len) {
    std::string out;
    for (std::uint64_t k = 0; k < len; ++k) out += "ACGT"[rng.below(4)];
    return out;
  };
  const auto mutated = [&](std::string text, double rate) {
    for (char& base : text) {
      if (rng.chance(rate)) base = "ACGT"[rng.below(4)];
    }
    return text;
  };
  const std::string unit = bases(1 + rng.below(4));
  std::string a, b;
  for (std::uint64_t stretch = 2 + rng.below(3); stretch-- > 0;) {
    const std::string flank = bases(20 + rng.below(40));
    a += flank;
    b += mutated(flank, 0.05);
    // s1 keeps at least half of the units and gains up to 19; an insertion
    // at b_copies is none.
    const std::uint64_t copies = 10 + rng.below(30);
    const std::uint64_t b_copies = copies - copies / 2 + rng.below(copies / 2 + 20);
    const std::uint64_t insert_at = rng.chance(0.5) ? rng.below(b_copies) : b_copies;
    for (std::uint64_t k = 0; k < copies; ++k) a += unit;
    std::string repeat;
    for (std::uint64_t k = 0; k < b_copies; ++k) {
      if (k == insert_at) repeat += bases(20 + rng.below(40));
      repeat += unit;
    }
    b += mutated(repeat, 0.03);
  }
  a += bases(20);
  b += bases(20);
  FuzzCase c{seq::SequencePair{seq::Sequence::from_string("s0", a),
                               seq::Sequence::from_string("s1", b), "co-optimal"},
             PipelineOptions{}};
  PipelineOptions& options = c.options;
  options.scheme = test::test_schemes()[rng.below(4)];
  options.grid_stage1 = tiny_grid(1 + static_cast<Index>(rng.below(6)),
                                  1 + static_cast<Index>(rng.below(6)),
                                  1 + static_cast<Index>(rng.below(3)));
  options.grid_stage23 = tiny_grid(2 + static_cast<Index>(rng.below(3)),
                                   1 + static_cast<Index>(rng.below(4)),
                                   1 + static_cast<Index>(rng.below(2)));
  options.max_partition_size = 4 + static_cast<Index>(rng.below(60));
  options.sra_rows_budget =
      8 * (static_cast<std::int64_t>(b.size()) + 1) * (1 + static_cast<std::int64_t>(rng.below(6)));
  options.sra_cols_budget = std::int64_t{1} << 24;
  options.block_pruning = rng.chance(0.5);
  return c;
}

// Consecutive L_3 crosspoints lie on one optimal path: every partition of
// L_3 scores its goal under dp::align_global, and so does every one of L_4.
TEST_P(PipelineFuzz, CoOptimalPairsKeepL3OnOnePath) {
  const FuzzCase c = draw_co_optimal_case(GetParam());
  const seq::SequenceView s0 = c.pair.s0.bases();
  const seq::SequenceView s1 = c.pair.s1.bases();
  Traceback t;
  ASSERT_NO_THROW(t = run_traceback(c.pair, c.options, c.options.block_pruning));
  ASSERT_GE(t.l2.size(), 2u);
  // Stage 3 adds at least two crosspoints per L_2 partition on average.
  EXPECT_GE(t.l3.size() - t.l2.size(), 2 * (t.l2.size() - 1));
  EXPECT_NO_THROW(validate_chain_scores(t.l3, s0, s1, c.options.scheme));
  EXPECT_NO_THROW(validate_chain_scores(t.l4, s0, s1, c.options.scheme));
  EXPECT_EQ(t.binary.score,
            baseline::align_full_matrix(s0, s1, c.options.scheme).alignment.score);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz, ::testing::Range<std::uint64_t>(1, 25));

// The fuzz differential above is not vacuous: over its seeds, goal pruning
// skips tiles in each of Stages 2, 3 and 4.
TEST(GoalPruning, FuzzSeedsPruneInEveryStage) {
  std::array<Index, 3> pruned_tiles{};
  for (std::uint64_t seed = 1; seed < 25; ++seed) {
    const FuzzCase c = draw_fuzz_case(seed);
    const auto tallies =
        expect_goal_pruning_exact(c.pair, c.options, "seed " + std::to_string(seed));
    for (std::size_t k = 0; k < 3; ++k) pruned_tiles[k] += tallies[k].pruned_tiles;
  }
  for (std::size_t k = 0; k < 3; ++k) EXPECT_GT(pruned_tiles[k], 0) << "stage " << k + 2;
}

// The 100 Kbp related pair (cudalign generate --length 100000 --seed 7, then
// --mutate-of with seed 8) at a 10 MiB SRA: few special rows, so Stages 2-4
// cross large rectangles around an almost diagonal path.
TEST(GoalPruning, Related100KAtTenMiBKeepsEveryCrosspoint) {
  const seq::Sequence s0 = seq::random_dna(100000, 7, "synthetic");
  const seq::Sequence s1 =
      seq::mutate(s0, seq::MutationProfile::related(), 8, "synthetic_mutant");
  const seq::SequencePair pair{s0, s1, "related-100k"};
  PipelineOptions options;
  options.sra_rows_budget = std::int64_t{10} << 20;
  options.sra_cols_budget = options.sra_rows_budget;
  ThreadPool pool(4);
  const auto tallies = expect_goal_pruning_exact(pair, options, "related 100K", &pool);
  for (std::size_t k = 0; k < 3; ++k) EXPECT_GT(tallies[k].pruned_tiles, 0) << "stage " << k + 2;
}

TEST(Pipeline, IdenticalSequences) {
  const auto s = seq::random_dna(300, 123, "same");
  const auto result = align_pipeline(s, s, small_options());
  EXPECT_EQ(result.best_score, 300);
  EXPECT_EQ(result.alignment.length(), 300);
  ASSERT_TRUE(result.visualization.has_value());
  EXPECT_EQ(result.visualization->composition.matches, 300);
  EXPECT_EQ(result.visualization->composition.gap_openings, 0);
}

TEST(Pipeline, EmptyAlignmentShortCircuits) {
  const auto a = seq::Sequence::from_string("a", "AAAAAAAA");
  const auto b = seq::Sequence::from_string("b", "CCCCCCCC");
  const auto result = align_pipeline(a, b, small_options());
  EXPECT_TRUE(result.empty);
  EXPECT_EQ(result.best_score, 0);
  EXPECT_EQ(result.alignment.length(), 0);
}

TEST(Pipeline, EmptyInputSequences) {
  const auto a = seq::Sequence::from_string("a", "");
  const auto b = seq::Sequence::from_string("b", "ACGT");
  const auto result = align_pipeline(a, b, small_options());
  EXPECT_TRUE(result.empty);
}

TEST(Pipeline, Stage2SpansAreBucketed) {
  // One special row per 8-row strip: Stage 2 runs one iteration per special
  // row it crosses, far more than the span tree may hold.
  const auto pair = seq::make_related_pair(300, 290, 4242);
  PipelineOptions options = small_options();
  obs::Telemetry telemetry;
  options.telemetry = &telemetry;
  const PipelineResult result = align_pipeline(pair.s0, pair.s1, options);
  telemetry.finish();
  ASSERT_GT(result.crosspoint_counts[1] - 1, engine::kSpanBuckets);  // Iterations.

  const obs::Span& pipeline = telemetry.root().children.at(0);
  const auto stage2 =
      std::find_if(pipeline.children.begin(), pipeline.children.end(),
                   [](const obs::Span& s) { return s.name == "stage 2 (partial traceback)"; });
  ASSERT_NE(stage2, pipeline.children.end());
  EXPECT_FALSE(stage2->children.empty());
  EXPECT_LE(static_cast<Index>(stage2->children.size()), engine::kSpanBuckets);
  EXPECT_EQ(stage2->children.front().name.rfind("iterations 0-", 0), 0u)
      << stage2->children.front().name;
}

TEST(Pipeline, WithoutSpecialColumnsStage4Absorbs) {
  const auto pair = test::small_related(250, 250, 888);
  PipelineOptions options = small_options();
  options.save_special_columns = false;
  const auto result = align_pipeline(pair.s0, pair.s1, options);
  const auto reference =
      baseline::align_full_matrix(pair.s0.bases(), pair.s1.bases(), options.scheme);
  EXPECT_EQ(result.alignment.score, reference.alignment.score);
  EXPECT_EQ(result.stages[2].cells, 0);  // Stage 3 skipped.
}

TEST(Pipeline, StageStatisticsArePopulated) {
  const auto pair = test::small_related(300, 300, 999);
  PipelineOptions options = small_options();
  options.block_pruning = false;  // Cells_1 = m*n is the unpruned Stage 1.
  const auto result = align_pipeline(pair.s0, pair.s1, options);
  EXPECT_EQ(result.stages[0].cells, 300 * 300);
  EXPECT_GT(result.stages[1].cells, 0);
  EXPECT_GT(result.crosspoint_counts[1], 1);
  EXPECT_GE(result.crosspoint_counts[2], result.crosspoint_counts[1]);
  EXPECT_GE(result.crosspoint_counts[3], result.crosspoint_counts[2]);
  EXPECT_GT(result.special_rows_saved, 0);
  EXPECT_GT(result.flush_interval, 0);
  EXPECT_GT(result.sra_peak_bytes, 0);
  EXPECT_GT(result.h_max_after_stage3, 0);
  EXPECT_GT(result.total_seconds(), 0.0);
}

// The bus audit over the whole pipeline (the CLI's --audit-bus). Stage 3
// runs its partitions concurrently on the pool, but one auditor audits one
// engine run at a time, so an audited run must stay clean with several
// Stage-3 partitions and several workers.
TEST(Pipeline, BusAuditCleanWithSeveralStage3Partitions) {
  const auto pair = test::small_related(600, 600, 4321);
  PipelineOptions options = small_options();
  // Few special rows, so Stage 2's rectangles are tall enough to save
  // special columns and Stage 3 has work in each partition.
  options.sra_rows_budget = 4 * 8 * 601;
  check::BusAuditor auditor;
  options.bus_audit = &auditor;
  ThreadPool pool(4);
  options.pool = &pool;
  const PipelineResult result = align_pipeline(pair.s0, pair.s1, options);
  ASSERT_GE(result.crosspoint_counts[1], 3) << "case no longer has two Stage-3 partitions";
  EXPECT_GT(result.stages[2].cells, 0);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  const auto reference =
      baseline::align_full_matrix(pair.s0.bases(), pair.s1.bases(), options.scheme);
  EXPECT_EQ(result.alignment.score, reference.alignment.score);
}

// The process-wide kernel pin (the CLI's --kernel) reaches every engine run
// of the pipeline, including Stage 3's partitions split concurrently on pool
// workers (no bus auditor, so they run in parallel): run_wavefront resolves
// the pin once per run and forces it on every tile.
TEST(Pipeline, ProcessKernelPinReachesEveryEngineRun) {
  const auto pair = test::small_related(600, 600, 4321);
  PipelineOptions options = small_options();
  // Few special rows and columns: Stage 3 splits several partitions and
  // leaves some larger than max_partition_size for Stage 4.
  options.sra_rows_budget = 4 * 8 * 601;
  options.sra_cols_budget = 4 * 8 * 601;
  ThreadPool pool(4);
  options.pool = &pool;
  const PipelineResult automatic = align_pipeline(pair.s0, pair.s1, options);
  const PipelineResult pinned = [&] {
    const test::ScopedKernelPin pin("legacy");
    return align_pipeline(pair.s0, pair.s1, options);
  }();
  ASSERT_GE(pinned.crosspoint_counts[1], 3) << "case no longer has two Stage-3 partitions";
  constexpr auto kLegacy = static_cast<std::size_t>(engine::KernelId::kLegacy);
  for (std::size_t s = 0; s < 4; ++s) {
    const auto& kernels = pinned.stages[s].kernels;
    EXPECT_GT(kernels[kLegacy].tiles, 0) << "stage " << s + 1;
    for (std::size_t k = 0; k < kernels.size(); ++k) {
      if (k == kLegacy) continue;
      EXPECT_EQ(kernels[k].tiles, 0) << "stage " << s + 1 << " ran "
                                     << engine::kernel_info(static_cast<engine::KernelId>(k)).name;
    }
  }
  EXPECT_NE(automatic.stages[0].kernels[kLegacy].tiles, automatic.stages[0].tiles)
      << "the unpinned run must not already be all-legacy";
  EXPECT_EQ(pinned.binary, automatic.binary);
}

TEST(Pipeline, Stage2CellsShrinkWithBiggerSra) {
  const auto pair = test::small_related(500, 260, 1234);
  PipelineOptions small_sra = small_options();
  small_sra.sra_rows_budget = 3 * 8 * 261;
  PipelineOptions big_sra = small_options();
  big_sra.sra_rows_budget = 4 << 20;
  const auto r_small = align_pipeline(pair.s0, pair.s1, small_sra);
  const auto r_big = align_pipeline(pair.s0, pair.s1, big_sra);
  EXPECT_EQ(r_small.alignment.score, r_big.alignment.score);
  EXPECT_LT(r_big.stages[1].cells, r_small.stages[1].cells);
}

TEST(Pipeline, ExplicitWorkdirIsUsed) {
  const auto pair = test::small_related(150, 150, 555);
  TempDir dir;
  PipelineOptions options = small_options();
  options.workdir = dir.path() / "run1";
  const auto result = align_pipeline(pair.s0, pair.s1, options);
  EXPECT_GT(result.best_score, 0);
  EXPECT_TRUE(std::filesystem::exists(dir.path() / "run1" / "rows"));
}

TEST(Pipeline, ReusedWorkdirStartsFresh) {
  const auto pair = test::small_related(180, 180, 557);
  TempDir dir;
  PipelineOptions options = small_options();
  options.workdir = dir.path() / "reused";
  const auto first = align_pipeline(pair.s0, pair.s1, options);
  // A second run on the same directory must not inherit the first run's
  // special rows (duplicate rows would corrupt matching / blow the budget).
  const auto second = align_pipeline(pair.s0, pair.s1, options);
  EXPECT_EQ(first.alignment.transcript, second.alignment.transcript);
  EXPECT_EQ(first.special_rows_saved, second.special_rows_saved);
}

// A fresh run empties a reused working directory before its stores open,
// so old rows are neither checked against the new budget nor against the
// row format version.
TEST(Pipeline, FreshRunOnWorkdirWhoseRowsExceedTheNewBudget) {
  const auto pair = test::small_related(400, 400, 559);
  TempDir dir;
  PipelineOptions roomy = small_options();
  roomy.workdir = dir.path() / "reused";
  const auto first = align_pipeline(pair.s0, pair.s1, roomy);
  PipelineOptions tight = roomy;
  tight.sra_rows_budget = 3 * 8 * (static_cast<std::int64_t>(pair.s1.size()) + 1);
  ASSERT_GT(first.sra_peak_bytes, tight.sra_rows_budget);
  const auto second = align_pipeline(pair.s0, pair.s1, tight);
  EXPECT_EQ(second.alignment.score, first.alignment.score);
  const auto files = std::distance(std::filesystem::directory_iterator(roomy.workdir / "rows"),
                                   std::filesystem::directory_iterator{});
  EXPECT_EQ(files, second.special_rows_saved);
}

TEST(Pipeline, FreshRunOnDirectoryHoldingOldFormatRows) {
  const auto pair = test::small_related(300, 300, 561);
  const PipelineResult reference = align_pipeline(pair.s0, pair.s1, small_options());
  for (const bool checkpointed : {false, true}) {
    SCOPED_TRACE(checkpointed ? "checkpoint directory" : "workdir");
    TempDir dir;
    PipelineOptions options = small_options();
    (checkpointed ? options.checkpoint_dir : options.workdir) = dir.path();
    // Row and column files of format version 3: a v4 store refuses to open
    // them, so only a fresh start can get past them.
    for (const char* store : {"rows", "cols"}) {
      {
        sra::SpecialRowsArea area(dir.path() / store, 1 << 20);
        (void)area.put(sra::RowKey{64, 0, 31, 1}, std::vector<engine::BusCell>(32));
      }
      std::fstream io(dir.path() / store / "sra-0.bin",
                      std::ios::binary | std::ios::in | std::ios::out);
      io.seekp(4);  // The version follows the 4-byte magic.
      const std::uint16_t v3 = 3;
      io.write(reinterpret_cast<const char*>(&v3), sizeof(v3));
    }
    EXPECT_THROW(sra::SpecialRowsArea(dir.path() / "rows", 1 << 20), Error);
    const PipelineResult result = align_pipeline(pair.s0, pair.s1, options);
    EXPECT_EQ(result.binary, reference.binary);
  }
}

// Clearing a reused directory deletes the stores' row files only: whatever
// else the user keeps in rows/, cols/ or beside them survives a fresh run.
TEST(Pipeline, FreshRunKeepsForeignFilesInTheWorkdir) {
  const auto pair = test::small_related(300, 300, 563);
  const PipelineResult reference = align_pipeline(pair.s0, pair.s1, small_options());
  const std::vector<std::string> foreign = {"notes.txt", "rows/notes.txt", "rows/sra-01.bin",
                                            "rows/keep/sra-0.bin", "cols/notes.txt"};
  for (const bool checkpointed : {false, true}) {
    SCOPED_TRACE(checkpointed ? "checkpoint directory" : "workdir");
    TempDir dir;
    PipelineOptions options = small_options();
    (checkpointed ? options.checkpoint_dir : options.workdir) = dir.path();
    {
      sra::SpecialRowsArea stale(dir.path() / "rows", 1 << 20);
      (void)stale.put(sra::RowKey{64, 0, 31, 1}, std::vector<engine::BusCell>(32));
    }
    std::filesystem::create_directories(dir.path() / "rows" / "keep");
    std::filesystem::create_directories(dir.path() / "cols");
    for (const std::string& name : foreign) write_file(dir.path() / name, name);

    const PipelineResult result = align_pipeline(pair.s0, pair.s1, options);
    EXPECT_EQ(result.binary, reference.binary);
    for (const std::string& name : foreign) EXPECT_EQ(read_file(dir.path() / name), name);
    // The stale row went: rows/ holds this run's rows besides the foreign names.
    const auto entries = std::distance(std::filesystem::directory_iterator(dir.path() / "rows"),
                                       std::filesystem::directory_iterator{});
    EXPECT_EQ(entries, result.special_rows_saved + 3);
  }
}

// Pruned tiles publish the constant (0, -inf), and the SRA leaves segments
// made only of it off disk; an unrelated pair prunes almost nothing, and its
// rows stay dense.
TEST(Pipeline, PrunedRowsStoreUnderATenthOfTheirBytes) {
  PipelineOptions options = small_options();
  options.grid_stage1 = tiny_grid(64, 8, 2);
  options.sra_rows_budget = 32 << 20;
  // A close pair (so few rows lie above the prune floor's reach) whose
  // descendant is padded with unrelated DNA past the ancestor's length: each
  // row holds one related band among many pruned segments.
  seq::MutationProfile close = seq::MutationProfile::related();
  close.substitution_rate = 0.005;
  const auto related = seq::make_related_pair(8000, 80000, 4545, close);
  const PipelineResult pruned = align_pipeline(related.s0, related.s1, options);
  EXPECT_GT(pruned.stages[0].pruned_cells, 0);
  EXPECT_GT(pruned.sra_stored_peak_bytes, 0);
  EXPECT_LT(pruned.sra_stored_peak_bytes * 10, pruned.sra_peak_bytes)
      << pruned.sra_stored_peak_bytes << " of " << pruned.sra_peak_bytes << " bytes stored";

  const auto unrelated = seq::make_unrelated_pair(12000, 12000, 40, 4546);
  const PipelineResult dense = align_pipeline(unrelated.s0, unrelated.s1, options);
  EXPECT_GE(dense.sra_stored_peak_bytes * 100, dense.sra_peak_bytes * 99);
  EXPECT_LE(dense.sra_stored_peak_bytes, dense.sra_peak_bytes);
}

TEST(Pipeline, AlignmentBinaryRoundTripsThroughDisk) {
  const auto pair = test::small_related(220, 230, 666);
  const auto result = align_pipeline(pair.s0, pair.s1, small_options());
  TempDir dir;
  alignment::write_binary_file(dir.path() / "a.bin", result.binary);
  const auto back = alignment::read_binary_file(dir.path() / "a.bin");
  EXPECT_EQ(back, result.binary);
  const auto st6 = run_stage6(pair.s0.bases(), pair.s1.bases(), back);
  EXPECT_EQ(st6.alignment.score, result.alignment.score);
}

TEST(Pipeline, DeterministicAcrossRuns) {
  const auto pair = test::small_related(260, 260, 321);
  const auto r1 = align_pipeline(pair.s0, pair.s1, small_options());
  const auto r2 = align_pipeline(pair.s0, pair.s1, small_options());
  EXPECT_EQ(r1.alignment.transcript, r2.alignment.transcript);
  EXPECT_EQ(r1.crosspoint_counts, r2.crosspoint_counts);
}

// ---------------------------------------------------------------------------
// SRA writer thread under a steal-heavy dataflow run.
// ---------------------------------------------------------------------------

TEST(PipelineAsyncFlush, StealHeavyDataflowWithAsyncWriter) {
  // Many more workers than blocks forces heavy cross-participant hand-offs
  // while the SRA writer thread runs concurrently — the TSan lane's target
  // configuration for retirer/worker/writer interleavings.
  const auto pair = seq::make_related_pair(700, 650, 2468);
  PipelineOptions options = small_options();
  options.grid_stage1 = tiny_grid(2, 4, 2);
  ThreadPool pool(8);
  options.pool = &pool;

  const PipelineResult result = align_pipeline(pair.s0, pair.s1, options);
  const auto reference =
      baseline::align_full_matrix(pair.s0.bases(), pair.s1.bases(), options.scheme);
  EXPECT_EQ(result.best_score, reference.alignment.score);
  EXPECT_EQ(result.stages[0].sra_rows_acked, result.special_rows_saved);
  EXPECT_GT(result.special_rows_saved, 0);
}

// ---------------------------------------------------------------------------
// Past the int16 envelope: a related pair whose scores leave the 16-bit lanes
// a few hundred rows in, so Stage 1's later tiles run on the int32 striped
// local sweep. Checked at the default ISA and with the generic one forced.
// ---------------------------------------------------------------------------

TEST(Int16EnvelopeCrossing, RelatedPairStaysOptimalOnStriped32Local) {
  const auto pair = seq::make_related_pair(2000, 2000, 5150);
  const scoring::Scheme scheme{100, -300, 500, 200};
  const auto reference = baseline::align_full_matrix(pair.s0.bases(), pair.s1.bases(), scheme);
  ASSERT_GT(reference.alignment.score, 28000 * 4);
  for (const bool generic : {false, true}) {
    const std::string label = generic ? "generic" : "default ISA";
    if (generic) engine::set_simd_isa_override(engine::SimdIsa::kGeneric);

    engine::ProblemSpec spec;
    spec.a = pair.s0.bases();
    spec.b = pair.s1.bases();
    spec.grid = engine::GridSpec{8, 16, 4, 32};  // 64-row strips, 250-column tiles.
    spec.recurrence = engine::Recurrence::local(scheme);
    const auto stage1 = engine::run_wavefront(spec, engine::Hooks{});
    const auto oracle = engine::run_reference(spec, engine::Hooks{});
    EXPECT_EQ(stage1.best.score, oracle.best.score) << label;
    EXPECT_EQ(stage1.best.i, oracle.best.i) << label;
    EXPECT_EQ(stage1.best.j, oracle.best.j) << label;
    const auto tally = [&](engine::KernelId id) {
      return stage1.stats.kernels[static_cast<std::size_t>(id)].tiles;
    };
    EXPECT_GT(tally(engine::KernelId::kStriped32LocalBest), 0)
        << label << ": " << engine::kernel_usage_summary(stage1.stats.kernels);
    EXPECT_EQ(tally(engine::KernelId::kVec32LocalBest) + tally(engine::KernelId::kVec32Local), 0)
        << label << ": " << engine::kernel_usage_summary(stage1.stats.kernels);

    PipelineOptions options;
    options.scheme = scheme;
    const PipelineResult result = align_pipeline(pair.s0, pair.s1, options);
    if (generic) engine::clear_simd_isa_override();
    EXPECT_EQ(result.best_score, reference.alignment.score) << label;
    EXPECT_EQ(result.end_point.i, reference.alignment.i1) << label;
    EXPECT_EQ(result.end_point.j, reference.alignment.j1) << label;
    EXPECT_EQ(result.alignment.score, reference.alignment.score) << label;
    EXPECT_NO_THROW(
        alignment::validate(result.alignment, pair.s0.bases(), pair.s1.bases(), scheme))
        << label;
    EXPECT_GT(result.stages[0]
                  .kernels[static_cast<std::size_t>(engine::KernelId::kStriped32LocalBest)]
                  .tiles,
              0)
        << label << ": " << engine::kernel_usage_summary(result.stages[0].kernels);
  }
}

// ---------------------------------------------------------------------------
// Tile shape: the paper's Stage-1 grid (240 blocks of at least 128 columns)
// and the default one (chunks of at least 1664 columns) must give the same
// answer on a related pair whose scores leave the int16 lanes, so int8,
// int16 and int32 tiles all run, on 1 and 4 workers. The chunk width sets
// each ISA's striped segment length, so ci.sh also runs this under every
// forced CUDALIGN_SIMD.
// ---------------------------------------------------------------------------

const seq::SequencePair& tile_shape_pair() {
  static const seq::SequencePair pair = seq::make_related_pair(32000, 32000, 3303);
  return pair;
}

constexpr engine::GridSpec kPaperStage1Grid{240, 64, 4, 128};

TEST(TileShapeEquivalence, PaperAndDefaultStage1GridsGiveOneAlignment) {
  const auto& pair = tile_shape_pair();
  const auto m = static_cast<WideScore>(pair.s0.size());
  const auto n = static_cast<WideScore>(pair.s1.size());
  const engine::GridSpec grids[] = {kPaperStage1Grid, engine::GridSpec::stage1_defaults()};
  ASSERT_EQ(engine::fit_to_width(grids[0], pair.s1.size()).blocks, 240);
  ASSERT_EQ(engine::fit_to_width(grids[1], pair.s1.size()).blocks, 19);
  std::string first_out;
  Score first_best = 0;
  Crosspoint first_end;
  for (const engine::GridSpec& grid : grids) {
    std::optional<std::array<engine::Tally, 6>> one_worker;
    for (const int workers : {1, 4}) {
      const std::string label = "B " + std::to_string(grid.blocks) + " min_chunk_cols " +
                                std::to_string(grid.min_chunk_cols) + ", " +
                                std::to_string(workers) + " workers";
      ThreadPool pool(workers);
      PipelineOptions options;
      options.grid_stage1 = grid;
      options.pool = &pool;
      const PipelineResult result = align_pipeline(pair.s0, pair.s1, options);
      const StageStats& stage1 = result.stages[0];
      EXPECT_EQ(stage1.cells + stage1.pruned_cells, m * n) << label;
      EXPECT_GT(stage1.pruned_cells, 0) << label;
      for (const auto id : {engine::KernelId::kStriped8LocalBest,
                            engine::KernelId::kStriped16LocalBest,
                            engine::KernelId::kStriped32LocalBest}) {
        EXPECT_GT(stage1.kernels[static_cast<std::size_t>(id)].cells, 0)
            << label << ": " << engine::kernel_usage_summary(stage1.kernels);
      }
      std::array<engine::Tally, 6> tallies;
      for (std::size_t k = 0; k < tallies.size(); ++k) tallies[k] = result.stages[k];
      if (!one_worker) {
        one_worker = tallies;
      } else {
        for (std::size_t k = 0; k < tallies.size(); ++k) {
          EXPECT_EQ(tallies[k], (*one_worker)[k]) << label << ", stage " << k + 1;
        }
      }
      std::ostringstream out;
      alignment::write_binary(out, result.binary);
      if (first_out.empty()) {
        ASSERT_GT(result.best_score, 28000) << "the pair must leave the int16 envelope";
        first_out = out.str();
        first_best = result.best_score;
        first_end = result.end_point;
      }
      EXPECT_EQ(out.str(), first_out) << label;
      EXPECT_EQ(result.best_score, first_best) << label;
      EXPECT_EQ(result.end_point, first_end) << label;
    }
  }
}

/// Stage 1's special rows of the tile-shape pair: every fourth strip row,
/// with the best the run found.
struct SpecialRowsRun {
  std::map<Index, std::vector<engine::BusCell>> rows;
  dp::LocalBest best;
  WideScore pruned_cells = 0;
};

SpecialRowsRun stage1_special_rows(const engine::GridSpec& grid, bool block_pruning) {
  const auto& pair = tile_shape_pair();
  engine::ProblemSpec spec;
  spec.a = pair.s0.bases();
  spec.b = pair.s1.bases();
  spec.grid = grid;
  spec.recurrence = engine::Recurrence::local(scoring::Scheme::paper_defaults());
  spec.block_pruning = block_pruning;
  SpecialRowsRun run;
  engine::Hooks hooks;
  hooks.special_row_interval = 4;
  hooks.on_special_row = [&](Index row, std::span<const engine::BusCell> cells,
                             const dp::LocalBest&, const engine::PruneState&) {
    run.rows[row].assign(cells.begin(), cells.end());
  };
  ThreadPool pool(4);
  const engine::RunResult result = engine::run_wavefront(spec, hooks, &pool);
  run.best = result.best;
  run.pruned_cells = result.stats.pruned_cells;
  return run;
}

// Unpruned, both grids flush the exact DP rows. Pruned, where the tiles
// differ with the grid, every row cell is a lower bound of the exact one:
// pruned tiles publish H 0 and F unreachable, and tiles below them compute
// from those bounds.
TEST(TileShapeEquivalence, UnprunedSpecialRowsAgreeAndPrunedOnesBoundThem) {
  const SpecialRowsRun exact = stage1_special_rows(kPaperStage1Grid, false);
  ASSERT_FALSE(exact.rows.empty());
  const SpecialRowsRun exact_default =
      stage1_special_rows(engine::GridSpec::stage1_defaults(), false);
  EXPECT_EQ(exact_default.rows, exact.rows);
  EXPECT_EQ(exact_default.best.score, exact.best.score);
  for (const engine::GridSpec& grid :
       {kPaperStage1Grid, engine::GridSpec::stage1_defaults()}) {
    const SpecialRowsRun pruned = stage1_special_rows(grid, true);
    const std::string label = "B " + std::to_string(grid.blocks);
    EXPECT_GT(pruned.pruned_cells, 0) << label;
    EXPECT_EQ(pruned.best.score, exact.best.score) << label;
    EXPECT_EQ(std::pair(pruned.best.i, pruned.best.j), std::pair(exact.best.i, exact.best.j))
        << label;
    ASSERT_EQ(pruned.rows.size(), exact.rows.size()) << label;
    for (const auto& [row, cells] : exact.rows) {
      const std::vector<engine::BusCell>& got = pruned.rows.at(row);
      ASSERT_EQ(got.size(), cells.size()) << label;
      for (std::size_t j = 0; j < cells.size(); ++j) {
        ASSERT_TRUE(got[j].h <= cells[j].h && got[j].gap <= cells[j].gap)
            << label << " row " << row << " column " << j;
      }
    }
  }
}

}  // namespace
}  // namespace cudalign::core
