// Quadratic Gotoh reference: hand-checked examples (including the paper's
// Figures 1-2 sequences), brute-force cross-validation, and traceback
// invariants.
#include <gtest/gtest.h>

#include "alignment/alignment.hpp"
#include "dp/bruteforce.hpp"
#include "dp/gotoh.hpp"
#include "test_util.hpp"

namespace cudalign {
namespace {

using dp::AlignMode;
using dp::CellState;
using seq::Sequence;
using test::rand_seq;

scoring::Scheme paper() { return scoring::Scheme::paper_defaults(); }

TEST(Gotoh, EmptyVsEmptyGlobalScoresZero) {
  const auto result = dp::align_global({}, {}, paper());
  EXPECT_EQ(result.score, 0);
  EXPECT_TRUE(result.transcript.empty());
}

TEST(Gotoh, EmptyVsNonEmptyGlobalIsOneGapRun) {
  const Sequence b = Sequence::from_string("b", "ACGT");
  const auto result = dp::align_global({}, b.bases(), paper());
  EXPECT_EQ(result.score, -(5 + 3 * 2));
  ASSERT_EQ(result.transcript.runs().size(), 1u);
  EXPECT_EQ(result.transcript.runs()[0].op, alignment::Op::kGapS0);
  EXPECT_EQ(result.transcript.runs()[0].len, 4);
}

TEST(Gotoh, SingleMatchGlobal) {
  const Sequence a = Sequence::from_string("a", "G");
  const auto result = dp::align_global(a.bases(), a.bases(), paper());
  EXPECT_EQ(result.score, 1);
}

TEST(Gotoh, PaperFigure1ScoreWithConstantGapsEquivalent) {
  // Figure 1 uses match +1, mismatch -1, gap -2 (constant). A constant gap
  // model is the affine model with gap_first == gap_ext.
  const scoring::Scheme fig1{1, -1, 2, 2};
  const Sequence s0 = Sequence::from_string("s0", "ACTTCCAGA");
  const Sequence s1 = Sequence::from_string("s1", "AGTTCCGGAGG");
  // The figure shows one global alignment scoring 1; the optimum is >= 1.
  const auto result = dp::align_global(s0.bases(), s1.bases(), fig1);
  EXPECT_GE(result.score, 1);
}

TEST(Gotoh, KnownAffineLocalAlignment) {
  // GGTTGACTA vs TGTTACGG with the paper's parameters: local alignment
  // GTT-AC / GTTGAC scores 4*1 - 5 + ... compute: GTTGAC vs GTT.AC:
  // G T T G A C
  // G T T - A C  => 5 matches + one 1-gap = 5 - 5 = 0; better is GTT / GTT=3.
  // Just assert agreement with brute force.
  const Sequence a = Sequence::from_string("a", "GGTTGACTA");
  const Sequence b = Sequence::from_string("b", "TGTTACGG");
  const auto local = dp::align_local(a.bases(), b.bases(), paper());
  EXPECT_EQ(local.score, dp::brute_force_local_score(a.bases(), b.bases(), paper()));
}

TEST(Gotoh, LocalOfDisjointAlphabetsIsEmpty) {
  const Sequence a = Sequence::from_string("a", "AAAA");
  const Sequence b = Sequence::from_string("b", "CCCC");
  const auto local = dp::align_local(a.bases(), b.bases(), paper());
  EXPECT_EQ(local.score, 0);
  EXPECT_TRUE(local.transcript.empty());
}

TEST(Gotoh, NNeverMatchesIncludingItself) {
  const Sequence a = Sequence::from_string("a", "NNNN");
  const auto local = dp::align_local(a.bases(), a.bases(), paper());
  EXPECT_EQ(local.score, 0);
}

TEST(Gotoh, LocalTracebackIsValidAlignment) {
  const auto a = rand_seq(60, 11);
  const auto b = rand_seq(55, 12);
  const auto local = dp::align_local(a.bases(), b.bases(), paper());
  alignment::Alignment aln{local.i0, local.j0, local.i1, local.j1, local.score, local.transcript};
  EXPECT_NO_THROW(alignment::validate(aln, a.bases(), b.bases(), paper()));
}

TEST(Gotoh, GlobalTracebackIsValidAlignment) {
  const auto a = rand_seq(40, 21);
  const auto b = rand_seq(44, 22);
  const auto g = dp::align_global(a.bases(), b.bases(), paper());
  alignment::Alignment aln{0, 0, a.size(), b.size(), g.score, g.transcript};
  EXPECT_NO_THROW(alignment::validate(aln, a.bases(), b.bases(), paper()));
}

TEST(Gotoh, StartStateEDiscountsLeadingHorizontalGap) {
  // a = "", b = "CC": starting inside an E gap charges 2*G_ext.
  const Sequence b = Sequence::from_string("b", "CC");
  const auto discounted = dp::align_global({}, b.bases(), paper(), CellState::kE);
  EXPECT_EQ(discounted.score, -4);
  const auto fresh = dp::align_global({}, b.bases(), paper(), CellState::kH);
  EXPECT_EQ(fresh.score, -(5 + 2));
}

TEST(Gotoh, StartStateFDiscountsLeadingVerticalGap) {
  const Sequence a = Sequence::from_string("a", "CCC");
  const auto discounted = dp::align_global(a.bases(), {}, paper(), CellState::kF);
  EXPECT_EQ(discounted.score, -6);
}

TEST(Gotoh, StartStateEDoesNotDiscountVerticalGap) {
  // Starting in E but aligning with a vertical gap re-opens.
  const Sequence a = Sequence::from_string("a", "C");
  const auto result = dp::align_global(a.bases(), {}, paper(), CellState::kE);
  EXPECT_EQ(result.score, -5);
}

TEST(Gotoh, EndStateConstraintsMatchBruteForce) {
  const auto a = rand_seq(7, 31);
  const auto b = rand_seq(6, 32);
  for (const CellState end : {CellState::kH, CellState::kE, CellState::kF}) {
    const auto full = dp::compute_full(a.bases(), b.bases(), paper(), AlignMode::kGlobal);
    const Score expected =
        dp::brute_force_global_score(a.bases(), b.bases(), paper(), CellState::kH, end);
    EXPECT_EQ(dp::value_in_state(full.at(a.size(), b.size()), end), expected)
        << "end state " << static_cast<int>(end);
  }
}

TEST(Gotoh, UnreachableEndStateThrows) {
  // End in E requires at least one column.
  const Sequence a = Sequence::from_string("a", "ACG");
  EXPECT_THROW((void)dp::align_global(a.bases(), {}, paper(), CellState::kH, CellState::kE),
               Error);
}

TEST(Gotoh, FullMatricesMatchBruteForceEverywhere) {
  const auto a = rand_seq(5, 41);
  const auto b = rand_seq(5, 42);
  const auto full = dp::compute_full(a.bases(), b.bases(), paper(), AlignMode::kGlobal);
  for (Index i = 0; i <= a.size(); ++i) {
    for (Index j = 0; j <= b.size(); ++j) {
      const Score expected = dp::brute_force_global_score(
          a.bases().subspan(0, static_cast<std::size_t>(i)),
          b.bases().subspan(0, static_cast<std::size_t>(j)), paper());
      EXPECT_EQ(full.at(i, j).h, expected) << "at (" << i << "," << j << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// Parameterized: random cross-validation against the independent brute force
// over every test scheme and a grid of sizes.
// ---------------------------------------------------------------------------

// No padding: gtest prints the parameter's raw bytes into each test name, and
// uninitialised padding would make the names differ from run to run.
struct BruteCase {
  std::size_t scheme_index;
  Index m, n;
  std::uint64_t seed;
};

class GotohVsBruteForce : public ::testing::TestWithParam<BruteCase> {};

TEST_P(GotohVsBruteForce, GlobalScoreAgrees) {
  const auto p = GetParam();
  const auto scheme = test::test_schemes()[p.scheme_index];
  const auto a = rand_seq(p.m, p.seed);
  const auto b = rand_seq(p.n, p.seed ^ 0xabcdef);
  const auto got = dp::align_global(a.bases(), b.bases(), scheme);
  EXPECT_EQ(got.score, dp::brute_force_global_score(a.bases(), b.bases(), scheme));
  alignment::Alignment aln{0, 0, a.size(), b.size(), got.score, got.transcript};
  EXPECT_NO_THROW(alignment::validate(aln, a.bases(), b.bases(), scheme));
}

TEST_P(GotohVsBruteForce, LocalScoreAgrees) {
  const auto p = GetParam();
  const auto scheme = test::test_schemes()[p.scheme_index];
  const auto a = rand_seq(p.m, p.seed ^ 0x1111);
  const auto b = rand_seq(p.n, p.seed ^ 0x2222);
  const auto got = dp::align_local(a.bases(), b.bases(), scheme);
  EXPECT_EQ(got.score, dp::brute_force_local_score(a.bases(), b.bases(), scheme));
}

TEST_P(GotohVsBruteForce, StartStateConstraintsAgree) {
  const auto p = GetParam();
  const auto scheme = test::test_schemes()[p.scheme_index];
  const auto a = rand_seq(std::min<Index>(p.m, 6), p.seed ^ 0x3333);
  const auto b = rand_seq(std::min<Index>(p.n, 6), p.seed ^ 0x4444);
  for (const CellState start : {CellState::kH, CellState::kE, CellState::kF}) {
    for (const CellState end : {CellState::kH, CellState::kE, CellState::kF}) {
      const auto full = dp::compute_full(a.bases(), b.bases(), scheme, AlignMode::kGlobal, start);
      const Score got = dp::value_in_state(full.at(a.size(), b.size()), end);
      const Score expected =
          dp::brute_force_global_score(a.bases(), b.bases(), scheme, start, end);
      EXPECT_EQ(got, expected) << "start " << static_cast<int>(start) << " end "
                               << static_cast<int>(end);
    }
  }
}

std::vector<BruteCase> brute_cases() {
  std::vector<BruteCase> cases;
  std::uint64_t seed = 1000;
  for (std::size_t s = 0; s < 4; ++s) {
    for (const auto& [m, n] : {std::pair<Index, Index>{4, 9}, {8, 8}, {12, 5}, {10, 10}}) {
      cases.push_back(BruteCase{s, m, n, seed++});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, GotohVsBruteForce, ::testing::ValuesIn(brute_cases()),
                         [](const ::testing::TestParamInfo<BruteCase>& tpi) {
                           const auto& p = tpi.param;
                           std::string name("s");
                           name += std::to_string(p.scheme_index);
                           name += "_m";
                           name += std::to_string(p.m);
                           name += "_n";
                           name += std::to_string(p.n);
                           return name;
                         });

TEST(BruteForce, MemoizedAgreesWithExponentialEnumeration) {
  const auto a = rand_seq(4, 77);
  const auto b = rand_seq(4, 78);
  for (const auto& scheme : test::test_schemes()) {
    EXPECT_EQ(dp::brute_force_global_score(a.bases(), b.bases(), scheme, CellState::kH,
                                           CellState::kH, true),
              dp::brute_force_global_score(a.bases(), b.bases(), scheme, CellState::kH,
                                           CellState::kH, false));
  }
}

}  // namespace
}  // namespace cudalign
