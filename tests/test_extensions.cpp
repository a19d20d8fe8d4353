// Extension features: CIGAR interop, dual-strand search, block pruning, the
// command-line argument parser, multi-worker determinism and masked-region
// (N-run) handling.
#include <gtest/gtest.h>

#include "alignment/cigar.hpp"
#include "baseline/full_matrix.hpp"
#include "common/args.hpp"
#include "core/stages.hpp"
#include "core/strand.hpp"
#include "dp/gotoh.hpp"
#include "engine/executor.hpp"
#include "test_util.hpp"

namespace cudalign {
namespace {

scoring::Scheme paper() { return scoring::Scheme::paper_defaults(); }

// ---------------------------------------------------------------------------
// CIGAR
// ---------------------------------------------------------------------------

TEST(Cigar, ClassicRendering) {
  alignment::Transcript t;
  t.append(alignment::Op::kDiagonal, 5);
  t.append(alignment::Op::kGapS0, 2);
  t.append(alignment::Op::kDiagonal, 1);
  t.append(alignment::Op::kGapS1, 3);
  EXPECT_EQ(alignment::to_cigar(t), "5M2I1M3D");
}

TEST(Cigar, RoundTripThroughParser) {
  const auto pair = test::small_related(300, 300, 51);
  const auto local = dp::align_local(pair.s0.bases(), pair.s1.bases(), paper());
  const std::string cigar = alignment::to_cigar(local.transcript);
  EXPECT_EQ(alignment::from_cigar(cigar), local.transcript);
}

TEST(Cigar, ExtendedSplitsMatchesAndMismatches) {
  const auto a = seq::Sequence::from_string("a", "ACGTACGT");
  const auto b = seq::Sequence::from_string("b", "ACCTACGT");
  alignment::Transcript t;
  t.append(alignment::Op::kDiagonal, 8);
  const alignment::Alignment aln{0, 0, 8, 8, 0, t};
  EXPECT_EQ(alignment::to_cigar_extended(aln, a.bases(), b.bases()), "2=1X5=");
}

TEST(Cigar, ExtendedRoundTripCollapsesToDiagonal) {
  EXPECT_EQ(alignment::from_cigar("2=1X5="), alignment::from_cigar("8M"));
}

TEST(Cigar, ParserRejectsMalformedInput) {
  EXPECT_THROW((void)alignment::from_cigar("5"), Error);     // Length, no op.
  EXPECT_THROW((void)alignment::from_cigar("M"), Error);     // Op, no length.
  EXPECT_THROW((void)alignment::from_cigar("3S"), Error);    // Unsupported op.
  EXPECT_THROW((void)alignment::from_cigar("0M"), Error);    // Zero length.
  EXPECT_TRUE(alignment::from_cigar("").empty());
}

// ---------------------------------------------------------------------------
// Dual-strand search
// ---------------------------------------------------------------------------

TEST(Strand, DetectsReverseComplementIsland) {
  // Plant a strong island in the reverse complement only.
  auto s0 = seq::random_dna(400, 61, "s0");
  auto s1 = seq::random_dna(400, 62, "s1");
  // Copy a 60-base s0 segment, reverse-complemented, into s1. Aligning s0
  // against revcomp(s1) then recovers the exact copy.
  auto& b1 = s1.mutable_bases();
  const auto src = s0.bases().subspan(100, 60);
  for (Index k = 0; k < 60; ++k) {
    b1[static_cast<std::size_t>(200 + k)] = seq::complement(src[static_cast<std::size_t>(59 - k)]);
  }
  const auto stranded = core::align_both_strands(s0, s1, core::PipelineOptions{});
  EXPECT_TRUE(stranded.reverse_strand);
  EXPECT_GT(stranded.reverse_score, stranded.forward_score);
  EXPECT_GE(stranded.result.best_score, 55);  // The island, allowing chance hits.
  EXPECT_NO_THROW(alignment::validate(stranded.result.alignment, s0.bases(),
                                      stranded.strand_s1.bases(), paper()));
}

TEST(Strand, ForwardWinsForRelatedPair) {
  const auto pair = test::small_related(300, 300, 63);
  const auto stranded = core::align_both_strands(pair.s0, pair.s1, core::PipelineOptions{});
  EXPECT_FALSE(stranded.reverse_strand);
  EXPECT_GE(stranded.forward_score, stranded.reverse_score);
  const auto reference = baseline::align_full_matrix(pair.s0.bases(), pair.s1.bases(), paper());
  EXPECT_EQ(stranded.result.best_score, reference.alignment.score);
}

// ---------------------------------------------------------------------------
// Block pruning
// ---------------------------------------------------------------------------

TEST(BlockPruning, IdenticalResultsAndSavesWork) {
  // Related pair: the best score grows early, so off-path blocks get pruned.
  const auto pair = test::small_related(600, 600, 71);
  engine::ProblemSpec spec;
  spec.a = pair.s0.bases();
  spec.b = pair.s1.bases();
  spec.grid = engine::GridSpec{6, 4, 2, 8};
  spec.recurrence = engine::Recurrence::local(paper());

  const auto plain = engine::run_wavefront(spec, engine::Hooks{});
  spec.block_pruning = true;
  const auto pruned = engine::run_wavefront(spec, engine::Hooks{});

  EXPECT_EQ(pruned.best.score, plain.best.score);
  EXPECT_EQ(pruned.best.i, plain.best.i);
  EXPECT_EQ(pruned.best.j, plain.best.j);
  EXPECT_GT(pruned.stats.pruned_cells, 0);
  EXPECT_EQ(pruned.stats.cells + pruned.stats.pruned_cells, plain.stats.cells);
}

TEST(BlockPruning, LaggedBestPrunesMoreThanTheAncestorClosure) {
  // 150 strips of height 8, far more than 2 * kPruneLag. An earlier bound,
  // since removed, took only the bests of each tile's ancestors (the tiles
  // above and to the left) and pruned 401,000 of this pair's 1,200,000
  // cells. The cumulative best of the strip kPruneLag up also reaches the
  // lower-left triangle, so the lagged best must keep pruning more.
  constexpr WideScore kAncestorOnlyPrunedCells = 401000;
  const auto pair = test::small_related(1200, 1000, 74);
  engine::ProblemSpec spec;
  spec.a = pair.s0.bases();
  spec.b = pair.s1.bases();
  spec.grid = engine::GridSpec{8, 4, 2, 8};
  spec.recurrence = engine::Recurrence::local(paper());
  const auto plain = engine::run_wavefront(spec, engine::Hooks{});
  spec.block_pruning = true;
  const auto pruned = engine::run_wavefront(spec, engine::Hooks{});
  ASSERT_GT(pruned.stats.strips, 2 * engine::kPruneLag);
  EXPECT_EQ(pruned.best.score, plain.best.score);
  EXPECT_EQ(pruned.best.i, plain.best.i);
  EXPECT_EQ(pruned.best.j, plain.best.j);
  EXPECT_GT(pruned.stats.pruned_cells, kAncestorOnlyPrunedCells);
}

TEST(BlockPruning, HarmlessOnUnrelatedPairs) {
  // Low best score -> bound rarely binds; correctness must still hold.
  const auto pair = seq::make_unrelated_pair(300, 300, 15, 72);
  engine::ProblemSpec spec;
  spec.a = pair.s0.bases();
  spec.b = pair.s1.bases();
  spec.grid = engine::GridSpec{4, 4, 2, 8};
  spec.recurrence = engine::Recurrence::local(paper());
  const auto plain = engine::run_wavefront(spec, engine::Hooks{});
  spec.block_pruning = true;
  const auto pruned = engine::run_wavefront(spec, engine::Hooks{});
  EXPECT_EQ(pruned.best.score, plain.best.score);
  EXPECT_EQ(pruned.best.i, plain.best.i);
}

TEST(BlockPruning, RejectedInGlobalModeAndWithProbes) {
  const auto a = test::rand_seq(32, 73);
  engine::ProblemSpec spec;
  spec.a = a.bases();
  spec.b = a.bases();
  spec.grid = engine::GridSpec{2, 2, 2, 4};
  spec.block_pruning = true;
  spec.recurrence = engine::Recurrence::global_start(dp::CellState::kH, paper());
  EXPECT_THROW((void)engine::run_wavefront(spec, engine::Hooks{}), Error);
  spec.recurrence = engine::Recurrence::local(paper());
  engine::Hooks hooks;
  hooks.find_value = 3;
  EXPECT_THROW((void)engine::run_wavefront(spec, hooks), Error);
}

TEST(BlockPruning, PipelineEndToEndStillOptimal) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    const auto pair = test::small_related(280, 290, 80 + seed);
    core::PipelineOptions options;
    options.grid_stage1 = engine::GridSpec{3, 4, 2, 8};
    options.grid_stage23 = engine::GridSpec{2, 4, 2, 8};
    options.block_pruning = true;
    const auto result = core::align_pipeline(pair.s0, pair.s1, options);
    const auto reference =
        baseline::align_full_matrix(pair.s0.bases(), pair.s1.bases(), paper());
    EXPECT_EQ(result.best_score, reference.alignment.score);
    EXPECT_NO_THROW(
        alignment::validate(result.alignment, pair.s0.bases(), pair.s1.bases(), paper()));
    EXPECT_GT(result.stages[0].pruned_cells, 0);
  }
}

// ---------------------------------------------------------------------------
// Seeded pruning (ProblemSpec::prune_floor, core::prune_floor)
// ---------------------------------------------------------------------------

engine::RunResult run_on(const engine::ProblemSpec& spec, std::size_t workers) {
  ThreadPool pool(workers);
  return engine::run_wavefront(spec, engine::Hooks{}, &pool);
}

TEST(SeededPruning, PlantedFloorsUpToTheOptimumAreExact) {
  struct Case {
    Index m, n;
    std::uint64_t seed;
    engine::GridSpec grid;
  };
  for (const Case& c : {Case{600, 600, 71, engine::GridSpec{6, 4, 2, 8}},
                        Case{1200, 1000, 74, engine::GridSpec{8, 4, 2, 8}}}) {
    const auto pair = test::small_related(c.m, c.n, c.seed);
    engine::ProblemSpec spec;
    spec.a = pair.s0.bases();
    spec.b = pair.s1.bases();
    spec.grid = c.grid;
    spec.recurrence = engine::Recurrence::local(paper());
    const auto plain = run_on(spec, 1);
    const Score best = plain.best.score;
    ASSERT_GT(best, 1);

    spec.block_pruning = true;
    std::vector<WideScore> pruned;
    for (const Score floor : {0, best - 1, best}) {
      spec.prune_floor = floor;
      const auto one = run_on(spec, 1);
      const auto four = run_on(spec, 4);
      const std::string label = "seed " + std::to_string(c.seed) + ", floor " +
                                std::to_string(floor);
      EXPECT_EQ(one.best.score, best) << label;
      EXPECT_EQ(one.best.i, plain.best.i) << label;
      EXPECT_EQ(one.best.j, plain.best.j) << label;
      EXPECT_EQ(one.stats.cells + one.stats.pruned_cells, plain.stats.cells) << label;
      EXPECT_TRUE(pruned.empty() || one.stats.pruned_cells >= pruned.back()) << label;
      pruned.push_back(one.stats.pruned_cells);
      EXPECT_TRUE(static_cast<const engine::Tally&>(one.stats) ==
                  static_cast<const engine::Tally&>(four.stats))
          << label;
      EXPECT_EQ(four.best.score, best) << label;
      EXPECT_EQ(four.best.i, one.best.i) << label;
      EXPECT_EQ(four.best.j, one.best.j) << label;
    }
    EXPECT_GT(pruned.back(), pruned.front()) << "the optimum as the floor pruned no more";

    // A floor above the optimum may prune the optimum's tiles; either way the
    // run's best comes out below the floor, the condition run_stage1 refuses.
    spec.prune_floor = best + 1;
    EXPECT_LT(run_on(spec, 1).best.score, spec.prune_floor) << "seed " << c.seed;
  }
}

TEST(SeededPruning, EngineRejectsNegativeOrUnprunedFloors) {
  const auto a = test::rand_seq(32, 73);
  engine::ProblemSpec spec;
  spec.a = a.bases();
  spec.b = a.bases();
  spec.grid = engine::GridSpec{2, 2, 2, 4};
  spec.recurrence = engine::Recurrence::local(paper());
  spec.prune_floor = 5;
  EXPECT_THROW((void)engine::run_wavefront(spec, engine::Hooks{}), Error);
  spec.block_pruning = true;
  EXPECT_NO_THROW((void)engine::run_wavefront(spec, engine::Hooks{}));
  spec.prune_floor = -1;
  EXPECT_THROW((void)engine::run_wavefront(spec, engine::Hooks{}), Error);
}

TEST(SeededPruning, FloorNeverExceedsTheOptimum) {
  // Masks a stretch of both sequences with N.
  const auto masked = [](seq::SequencePair pair, std::size_t from, std::size_t length) {
    for (auto* s : {&pair.s0, &pair.s1}) {
      auto& bases = s->mutable_bases();
      for (std::size_t k = from; k < std::min(bases.size(), from + length); ++k) {
        bases[k] = seq::kN;
      }
    }
    return pair;
  };
  // Prepends `length` random bases to s0 (`to_s0`) or s1, moving the
  // alignment's diagonal j - i by -length or +length.
  const auto shifted = [](seq::SequencePair pair, bool to_s0, Index length) {
    seq::Sequence& s = to_s0 ? pair.s0 : pair.s1;
    auto& bases = s.mutable_bases();
    const seq::Sequence pad = test::rand_seq(length, 99);
    bases.insert(bases.begin(), pad.bases().begin(), pad.bases().end());
    return pair;
  };
  // Related pairs of 2K and more run the band (floor near the optimum), also
  // far off the main diagonal; unrelated, all-N, short and empty ones skip it (floor 0).
  struct Case {
    std::string label;
    seq::SequencePair pair;
    bool band;
  };
  std::vector<Case> cases;
  cases.push_back({"related 2000x2100", test::small_related(2000, 2100, 91), true});
  cases.push_back(
      {"related 2000x2000, N run", masked(test::small_related(2000, 2000, 93), 900, 200), true});
  cases.push_back(
      {"related, diagonal -600", shifted(test::small_related(2000, 2000, 100), true, 600), true});
  cases.push_back(
      {"related, diagonal +600", shifted(test::small_related(2000, 2000, 101), false, 600), true});
  cases.push_back({"all N", masked(test::small_related(2000, 2000, 94), 0, 2000), false});
  cases.push_back({"unrelated 2000x1800", seq::make_unrelated_pair(2000, 1800, 120, 95), false});
  cases.push_back({"related 31x20", test::small_related(31, 20, 96), false});
  seq::SequencePair empty;
  empty.s1 = test::rand_seq(25, 97);
  cases.push_back({"empty x 25", empty, false});
  std::swap(empty.s0, empty.s1);
  cases.push_back({"25 x empty", empty, false});
  cases.push_back({"empty x empty", seq::SequencePair{}, false});

  for (const auto& scheme : test::test_schemes()) {
    for (const Case& c : cases) {
      const std::string label = c.label + ", " + test::scheme_name(scheme);
      const Score floor = core::prune_floor(c.pair.s0.bases(), c.pair.s1.bases(), scheme);
      const Score optimum =
          baseline::align_full_matrix(c.pair.s0.bases(), c.pair.s1.bases(), scheme)
              .alignment.score;
      EXPECT_LE(floor, optimum) << label;
      if (c.band) {
        // The band sits on the alignment: most of the optimum, not noise.
        EXPECT_GT(floor, optimum * 9 / 10) << label << ", optimum " << optimum;
      } else {
        EXPECT_EQ(floor, 0) << label;
      }
    }
  }
}

TEST(SeededPruning, PipelineBinaryIdenticalWithAndWithoutPruning) {
  const auto pair = test::small_related(6000, 6000, 98);
  core::PipelineOptions options;
  options.grid_stage1 = engine::GridSpec{24, 16, 2, 64};
  options.grid_stage23 = engine::GridSpec{4, 16, 2, 64};
  options.block_pruning = false;
  const auto plain = core::align_pipeline(pair.s0, pair.s1, options);
  options.block_pruning = true;
  const auto pruned = core::align_pipeline(pair.s0, pair.s1, options);
  EXPECT_EQ(plain.prune_floor, 0);
  EXPECT_GT(pruned.prune_floor, 0);
  EXPECT_LE(pruned.prune_floor, pruned.best_score);
  EXPECT_EQ(pruned.best_score, plain.best_score);
  EXPECT_TRUE(pruned.binary == plain.binary);
  const double matrix = 6000.0 * 6000.0;
  EXPECT_GT(static_cast<double>(pruned.stages[0].pruned_cells) / matrix, 0.8);
}

// ---------------------------------------------------------------------------
// Masked regions (N runs)
// ---------------------------------------------------------------------------

TEST(MaskedRegions, PipelineHandlesNRuns) {
  // Chromosomes carry long N runs; the pipeline must align around them and
  // stay optimal.
  auto pair = test::small_related(300, 300, 90);
  auto& b0 = pair.s0.mutable_bases();
  for (Index k = 120; k < 150; ++k) b0[static_cast<std::size_t>(k)] = seq::kN;
  const auto result = core::align_pipeline(pair.s0, pair.s1, core::PipelineOptions{});
  const auto reference = baseline::align_full_matrix(pair.s0.bases(), pair.s1.bases(), paper());
  EXPECT_EQ(result.best_score, reference.alignment.score);
  if (!result.empty) {
    EXPECT_NO_THROW(
        alignment::validate(result.alignment, pair.s0.bases(), pair.s1.bases(), paper()));
  }
}

// ---------------------------------------------------------------------------
// Multi-worker determinism of the parallel stages
// ---------------------------------------------------------------------------

TEST(Parallelism, PipelineIdenticalAcrossWorkerCounts) {
  const auto pair = test::small_related(400, 380, 91);
  ThreadPool one(1), four(4);
  core::PipelineOptions options;
  options.sra_rows_budget = 4 * 8 * 381;  // Large partitions: stages 3-5 busy.
  options.grid_stage1 = engine::GridSpec{3, 4, 2, 8};
  options.grid_stage23 = engine::GridSpec{2, 4, 2, 8};
  options.pool = &one;
  const auto r1 = core::align_pipeline(pair.s0, pair.s1, options);
  options.pool = &four;
  const auto r4 = core::align_pipeline(pair.s0, pair.s1, options);
  EXPECT_EQ(r1.alignment.transcript, r4.alignment.transcript);
  EXPECT_EQ(r1.crosspoint_counts, r4.crosspoint_counts);
  EXPECT_EQ(r1.stages[3].cells, r4.stages[3].cells);
}

TEST(Progress, PipelineReportsMonotoneFractions) {
  const auto pair = test::small_related(300, 300, 95);
  core::PipelineOptions options;
  options.grid_stage1 = engine::GridSpec{3, 4, 2, 8};
  options.grid_stage23 = engine::GridSpec{2, 4, 2, 8};
  std::vector<std::pair<int, double>> events;
  options.progress = [&](int stage, double fraction) { events.push_back({stage, fraction}); };
  (void)core::align_pipeline(pair.s0, pair.s1, options);
  ASSERT_FALSE(events.empty());
  // Stage-1 fractions are monotone and end at 1.0; stages appear in order.
  double last_fraction = 0;
  int last_stage = 1;
  for (const auto& [stage, fraction] : events) {
    EXPECT_GE(stage, last_stage);
    if (stage == 1) {
      EXPECT_GE(fraction, last_fraction);
      last_fraction = fraction;
    }
    last_stage = stage;
  }
  EXPECT_EQ(events.back().first, 5);
  EXPECT_DOUBLE_EQ(events.back().second, 1.0);
}

TEST(Parallelism, NestedParallelForRunsInline) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    // Nested call must not deadlock; it runs inline on the worker.
    pool.parallel_for(4, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

// ---------------------------------------------------------------------------
// CLI argument parser
// ---------------------------------------------------------------------------

common::Args parse(std::vector<std::string> argv, const std::vector<std::string>& switches = {}) {
  std::vector<char*> raw;
  raw.push_back(const_cast<char*>("prog"));
  for (auto& s : argv) raw.push_back(s.data());
  return common::Args(static_cast<int>(raw.size()), raw.data(), 1, switches);
}

TEST(Args, PositionalAndFlags) {
  auto args = parse({"a.fasta", "--out", "x.bin", "b.fasta", "--stats"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "a.fasta");
  EXPECT_EQ(args.str("out"), "x.bin");
  EXPECT_TRUE(args.has("stats"));
  EXPECT_FALSE(args.has("missing"));
  // A switch before the positionals must not swallow the first of them.
  auto leading = parse({"--stats", "a.fasta", "--out", "x.bin", "b.fasta"}, {"stats"});
  ASSERT_EQ(leading.positional().size(), 2u);
  EXPECT_EQ(leading.positional()[0], "a.fasta");
  EXPECT_EQ(leading.positional()[1], "b.fasta");
  EXPECT_TRUE(leading.has("stats"));
  EXPECT_EQ(leading.str("stats", "unset"), "");
  EXPECT_EQ(leading.str("out"), "x.bin");
}

TEST(Args, EqualsSyntaxAndDefaults) {
  auto args = parse({"--sra=2G", "--max-partition=32"});
  EXPECT_EQ(args.num("sra", 0), 2LL << 30);
  EXPECT_EQ(args.num("max-partition", 0), 32);
  EXPECT_EQ(args.num("absent", 7), 7);
}

TEST(Args, SizeSuffixes) {
  EXPECT_EQ(parse({"--x=5K"}).num("x", 0), 5 << 10);
  EXPECT_EQ(parse({"--x=3M"}).num("x", 0), 3 << 20);
  EXPECT_THROW((void)parse({"--x=3Q"}).num("x", 0), Error);
  EXPECT_THROW((void)parse({"--x=abc"}).num("x", 0), Error);
}

TEST(Args, NegativeNumbersAsValues) {
  // "--mismatch -4": the value starts with '-' but not '--', so it is a
  // value, not a flag.
  auto args = parse({"--mismatch", "-4", "--match", "2"});
  EXPECT_EQ(args.num("mismatch", 0), -4);
  EXPECT_EQ(args.num("match", 0), 2);
}

TEST(Args, UnknownFlagDetection) {
  auto args = parse({"--good", "1", "--typo", "2"});
  EXPECT_THROW(args.check_known({"good"}), Error);
  EXPECT_NO_THROW(args.check_known({"good", "typo"}));
}

}  // namespace
}  // namespace cudalign
