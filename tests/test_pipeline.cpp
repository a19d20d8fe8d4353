// End-to-end pipeline properties: for every configuration the pipeline's
// alignment must be a *valid* alignment whose score equals the full-matrix
// Smith-Waterman optimum — the paper's core claim (optimal alignment in
// linear space).
#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/full_matrix.hpp"
#include "check/bus_audit.hpp"
#include "common/io_util.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "engine/executor.hpp"
#include "engine/kernel_registry.hpp"
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

TEST_P(PipelineFuzz, RandomConfigurationStaysOptimal) {
  Rng rng(GetParam() * 7919);
  const Index n0 = 40 + static_cast<Index>(rng.below(360));
  const Index n1 = 40 + static_cast<Index>(rng.below(360));
  const bool related = rng.chance(0.6);
  const auto island = static_cast<Index>(rng.below(static_cast<std::uint64_t>(
      std::min(n0, n1) / 2 + 1)));
  const auto pair = related ? seq::make_related_pair(n0, n1, rng.next())
                            : seq::make_unrelated_pair(n0, n1, island, rng.next());

  PipelineOptions options;
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

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz, ::testing::Range<std::uint64_t>(1, 25));

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
  ASSERT_GT(result.crosspoint_counts[1] - 1, engine::kDiagonalBuckets);  // Iterations.

  const obs::Span& pipeline = telemetry.root().children.at(0);
  const auto stage2 =
      std::find_if(pipeline.children.begin(), pipeline.children.end(),
                   [](const obs::Span& s) { return s.name == "stage 2 (partial traceback)"; });
  ASSERT_NE(stage2, pipeline.children.end());
  EXPECT_FALSE(stage2->children.empty());
  EXPECT_LE(static_cast<Index>(stage2->children.size()), engine::kDiagonalBuckets);
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
  const auto result = align_pipeline(pair.s0, pair.s1, small_options());
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

TEST(Pipeline, AlignmentBinaryRoundTripsThroughDisk) {
  const auto pair = test::small_related(220, 230, 666);
  const auto result = align_pipeline(pair.s0, pair.s1, small_options());
  TempDir dir;
  alignment::write_binary_file(dir.path() / "a.bin", result.binary);
  const auto back = alignment::read_binary_file(dir.path() / "a.bin");
  EXPECT_EQ(back, result.binary);
  const auto st6 =
      run_stage6(pair.s0.bases(), pair.s1.bases(), back, scoring::Scheme::paper_defaults());
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
  options.executor = engine::ExecutorKind::kDataflow;
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
    spec.grid = engine::GridSpec{8, 16, 4, 1};  // 64-row strips, 250-column tiles.
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
        << label << ": " << engine::kernel_usage_summary(stage1.stats);
    EXPECT_EQ(tally(engine::KernelId::kVec32LocalBest) + tally(engine::KernelId::kVec32Local), 0)
        << label << ": " << engine::kernel_usage_summary(stage1.stats);

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

}  // namespace
}  // namespace cudalign::core
