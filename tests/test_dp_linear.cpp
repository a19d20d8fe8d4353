// Linear-space sweeps vs the quadratic reference; Myers-Miller vector
// semantics and the Formula-4 matcher.
#include <gtest/gtest.h>

#include "dp/gotoh.hpp"
#include "dp/linear.hpp"
#include "test_util.hpp"

namespace cudalign {
namespace {

using dp::AlignMode;
using dp::CellState;
using test::rand_seq;

scoring::Scheme paper() { return scoring::Scheme::paper_defaults(); }

struct SweepCase {
  int scheme_index;
  Index m, n;
  int mode;  // 0 local, 1 global.
  std::uint64_t seed;
};

class LinearSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(LinearSweep, EveryRowMatchesFullMatrices) {
  const auto p = GetParam();
  const auto scheme = test::test_schemes()[static_cast<std::size_t>(p.scheme_index)];
  const auto mode = p.mode == 0 ? AlignMode::kLocal : AlignMode::kGlobal;
  const auto a = rand_seq(p.m, p.seed);
  const auto b = rand_seq(p.n, p.seed ^ 0x5555);
  const auto full = dp::compute_full(a.bases(), b.bases(), scheme, mode);
  (void)dp::sweep_rows(a.bases(), b.bases(), scheme, mode, CellState::kH,
                       [&](const dp::RowView& row) {
                         for (Index j = 0; j <= b.size(); ++j) {
                           const auto& cell = full.at(row.i, j);
                           EXPECT_EQ(row.h[static_cast<std::size_t>(j)], cell.h)
                               << "H at (" << row.i << "," << j << ")";
                           EXPECT_EQ(row.e[static_cast<std::size_t>(j)], cell.e)
                               << "E at (" << row.i << "," << j << ")";
                           EXPECT_EQ(row.f[static_cast<std::size_t>(j)], cell.f)
                               << "F at (" << row.i << "," << j << ")";
                         }
                       });
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  std::uint64_t seed = 5000;
  for (int s = 0; s < 4; ++s) {
    for (int mode = 0; mode < 2; ++mode) {
      cases.push_back(SweepCase{s, 17, 23, mode, seed++});
      cases.push_back(SweepCase{s, 32, 8, mode, seed++});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, LinearSweep, ::testing::ValuesIn(sweep_cases()),
                         [](const ::testing::TestParamInfo<SweepCase>& tpi) {
                           const auto& p = tpi.param;
                           std::string name("s");
                           name += std::to_string(p.scheme_index);
                           name += p.mode == 0 ? "_local" : "_global";
                           name += "_m";
                           name += std::to_string(p.m);
                           name += "_n";
                           name += std::to_string(p.n);
                           return name;
                         });

TEST(LinearLocalBest, AgreesWithFullMatrixSearchIncludingTieBreak) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto a = rand_seq(40, 900 + seed);
    const auto b = rand_seq(35, 950 + seed);
    const auto full = dp::compute_full(a.bases(), b.bases(), paper(), AlignMode::kLocal);
    const auto expected = dp::find_local_best(full);
    const auto got = dp::linear_local_best(a.bases(), b.bases(), paper());
    EXPECT_EQ(got.score, expected.score);
    EXPECT_EQ(got.i, expected.i);
    EXPECT_EQ(got.j, expected.j);
  }
}

TEST(MiddleRowVectors, ForwardEqualsFullMatrixRow) {
  const auto a = rand_seq(20, 61);
  const auto b = rand_seq(15, 62);
  const Index mid = 9;
  const auto fwd = dp::forward_to_row(a.bases(), b.bases(), mid, paper());
  const auto full = dp::compute_full(a.bases(), b.bases(), paper(), AlignMode::kGlobal);
  for (Index j = 0; j <= b.size(); ++j) {
    EXPECT_EQ(fwd.cc[static_cast<std::size_t>(j)], full.at(mid, j).h);
    EXPECT_EQ(fwd.dd[static_cast<std::size_t>(j)], full.at(mid, j).f);
  }
}

TEST(MiddleRowVectors, ReverseVectorsAreSuffixScores) {
  const auto a = rand_seq(14, 71);
  const auto b = rand_seq(11, 72);
  const Index mid = 6;
  const auto rev = dp::reverse_to_row(a.bases(), b.bases(), mid, paper());
  // rr[j] must equal the global score of the suffix problem a[mid..m) x b[j..n).
  for (Index j = 0; j <= b.size(); ++j) {
    const auto suffix_a = a.bases().subspan(static_cast<std::size_t>(mid));
    const auto suffix_b = b.bases().subspan(static_cast<std::size_t>(j));
    const auto expected = dp::align_global(suffix_a, suffix_b, paper());
    EXPECT_EQ(rev.cc[static_cast<std::size_t>(j)], expected.score) << "j=" << j;
  }
}

TEST(MatchRow, SplitScoreEqualsGlobalOptimum) {
  // For any middle row, max_j of the matcher must equal the full optimum
  // (Formula 4 with the +G_open repair).
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const auto a = rand_seq(24, 300 + seed);
    const auto b = rand_seq(20, 350 + seed);
    for (const auto& scheme : test::test_schemes()) {
      const Score optimum = dp::align_global(a.bases(), b.bases(), scheme).score;
      for (const Index mid : {Index{1}, a.size() / 2, a.size() - 1}) {
        const auto fwd = dp::forward_to_row(a.bases(), b.bases(), mid, scheme);
        const auto rev = dp::reverse_to_row(a.bases(), b.bases(), mid, scheme);
        const auto match = dp::match_row(fwd.cc, fwd.dd, rev.cc, rev.dd, scheme);
        EXPECT_EQ(match.score, optimum) << "mid=" << mid << " seed=" << seed;
      }
    }
  }
}

TEST(MatchRow, GapCrossingIsDetectedAsFState) {
  // Force a long vertical gap: a is much longer than b and all-distinct, so
  // the optimal global alignment must delete most of a; crossing the middle
  // row happens inside that vertical run for a suitable mid.
  const auto a = seq::Sequence::from_string("a", "AAAAAAAAAA");
  const auto b = seq::Sequence::from_string("b", "A");
  const auto scheme = paper();
  const Index mid = 5;
  const auto fwd = dp::forward_to_row(a.bases(), b.bases(), mid, scheme);
  const auto rev = dp::reverse_to_row(a.bases(), b.bases(), mid, scheme);
  const auto match = dp::match_row(fwd.cc, fwd.dd, rev.cc, rev.dd, scheme);
  const Score optimum = dp::align_global(a.bases(), b.bases(), scheme).score;
  EXPECT_EQ(match.score, optimum);
  // The crossing at row 5 can be a gap crossing (state F) for j in {0, 1}.
  EXPECT_EQ(match.state, dp::CellState::kF);
}

}  // namespace
}  // namespace cudalign
