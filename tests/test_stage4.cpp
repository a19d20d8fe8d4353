// Stage 4 on engine tiles: the midpoint each split finds must be the one the
// linear-space dp sweeps define — forward_to_row/reverse_to_row/match_row
// for the full reverse pass, and the first goal-reaching column from the
// right for the orthogonal one — on random partitions, for every start/end
// state, in both split orientations.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/stages.hpp"
#include "dp/linear.hpp"
#include "test_util.hpp"

namespace cudalign {
namespace {

using core::Crosspoint;
using dp::CellState;

constexpr CellState kStates[] = {CellState::kH, CellState::kE, CellState::kF};

/// The split of the whole (a x b) problem at row m/2, from the dp oracle.
/// `goal` is the partition's score (its start scores 0).
Crosspoint oracle_split(seq::SequenceView a, seq::SequenceView b, CellState start, CellState end,
                        Score goal, const scoring::Scheme& scheme, bool orthogonal) {
  const Index m = static_cast<Index>(a.size());
  const Index n = static_cast<Index>(b.size());
  const Index mid = m / 2;
  const dp::MiddleRow fwd = dp::forward_to_row(a, b, mid, scheme, start);
  const dp::MiddleRow rev = dp::reverse_to_row(a, b, mid, scheme, end);
  if (!orthogonal) {
    const dp::RowMatch match = dp::match_row(fwd.cc, fwd.dd, rev.cc, rev.dd, scheme);
    const auto j = static_cast<std::size_t>(match.j);
    const Score score = match.state == CellState::kH ? fwd.cc[j] : fwd.dd[j];
    return Crosspoint{mid, match.j, score, match.state};
  }
  for (Index j = n; j >= 0; --j) {
    const auto k = static_cast<std::size_t>(j);
    if (!is_neg_inf(fwd.cc[k]) && !is_neg_inf(rev.cc[k]) && fwd.cc[k] + rev.cc[k] == goal) {
      return Crosspoint{mid, j, fwd.cc[k], CellState::kH};
    }
    if (!is_neg_inf(fwd.dd[k]) && !is_neg_inf(rev.dd[k]) &&
        fwd.dd[k] + rev.dd[k] + scheme.gap_open() == goal) {
      return Crosspoint{mid, j, fwd.dd[k], CellState::kF};
    }
  }
  ADD_FAILURE() << "oracle found no goal-reaching column";
  return Crosspoint{};
}

/// Best score of a global (a x b) alignment entering in `start` and ending
/// in `end` — the score Stage 4 receives for such a partition.
Score partition_goal(seq::SequenceView a, seq::SequenceView b, CellState start, CellState end,
                     const scoring::Scheme& scheme) {
  const dp::RowVectors last = dp::sweep_rows(a, b, scheme, dp::AlignMode::kGlobal, start);
  const std::size_t n = b.size();
  return dp::value_in_state(dp::CellHEF{last.h[n], last.e[n], last.f[n]}, end);
}

TEST(Stage4Tiles, SplitMatchesDpOracleOnRandomPartitions) {
  Rng rng(4404);
  const std::vector<scoring::Scheme> schemes = test::test_schemes();
  int cases = 0;
  for (int iter = 0; iter < 24; ++iter) {
    // One long and one short side, so balanced splitting halves the long one
    // exactly once; both orientations (by row, and by column via the
    // transposed problem) come up.
    const Index longer = 40 + static_cast<Index>(rng.below(240));
    const Index shorter =
        2 + static_cast<Index>(rng.below(static_cast<std::uint64_t>(longer / 2)));
    const bool by_row = iter % 2 == 0;
    const Index m = by_row ? longer : shorter;
    const Index n = by_row ? shorter : longer;
    // Two in three pairs are related (a long gapped optimal path), the rest
    // unrelated random DNA.
    const seq::SequencePair pair =
        iter % 3 == 0 ? seq::SequencePair{test::rand_seq(m, rng.next()),
                                          test::rand_seq(n, rng.next()), "random", false}
                      : test::small_related(m, n, rng.next());
    const seq::Sequence& s0 = pair.s0;
    const seq::Sequence& s1 = pair.s1;
    ASSERT_EQ(static_cast<Index>(s0.size()), m);
    ASSERT_EQ(static_cast<Index>(s1.size()), n);
    const scoring::Scheme& scheme = schemes[static_cast<std::size_t>(iter) % schemes.size()];
    for (const CellState start : kStates) {
      for (const CellState end : kStates) {
        const Score goal = partition_goal(s0.bases(), s1.bases(), start, end, scheme);
        if (is_neg_inf(goal)) continue;
        for (const bool orthogonal : {true, false}) {
          const std::string label = "iter" + std::to_string(iter) + "_" + std::to_string(m) +
                                    "x" + std::to_string(n) + "_s" +
                                    std::to_string(static_cast<int>(start)) + "_e" +
                                    std::to_string(static_cast<int>(end)) +
                                    (orthogonal ? "_orth" : "_full");
          core::Stage4Config config;
          config.scheme = scheme;
          config.orthogonal = orthogonal;
          config.max_partition_size = std::max(longer - longer / 2, shorter);
          const core::CrosspointList l3 = {Crosspoint{0, 0, 0, start},
                                           Crosspoint{m, n, goal, end}};
          const core::Stage4Result result =
              core::run_stage4(s0.bases(), s1.bases(), l3, config);
          ASSERT_EQ(result.iterations.size(), 1u) << label;
          ASSERT_EQ(result.crosspoints.size(), 3u) << label;
          const Crosspoint got = result.crosspoints[1];

          Crosspoint want;
          if (by_row) {
            want = oracle_split(s0.bases(), s1.bases(), start, end, goal, scheme, orthogonal);
          } else {
            const Crosspoint t =
                oracle_split(s1.bases(), s0.bases(), core::transpose_state(start),
                             core::transpose_state(end), goal, scheme, orthogonal);
            want = Crosspoint{t.j, t.i, t.score, core::transpose_state(t.type)};
          }
          EXPECT_EQ(got, want) << label;

          // Accounting: every computed cell is attributed to a kernel.
          WideScore kernel_cells = 0;
          Index kernel_tiles = 0;
          for (const auto& tally : result.stats.kernels) {
            kernel_cells += tally.cells;
            kernel_tiles += tally.tiles;
          }
          EXPECT_EQ(kernel_cells, result.stats.cells) << label;
          EXPECT_EQ(kernel_tiles, result.stats.tiles) << label;
          EXPECT_EQ(result.iterations[0].cells, result.stats.cells) << label;
          ++cases;
        }
      }
    }
  }
  EXPECT_GT(cases, 300);
}

// Large partitions run the striped int32 kernel: the forward half and every
// wide reverse tile. End types E and F make the reverse sweep's column 0 or
// row 0 sentinel H (dp::end_corner); that column or row runs as its own
// scalar tile, so the rest of the sweep still runs striped.
TEST(Stage4Tiles, WidePartitionsRunOnTheStripedGlobalKernel) {
  const seq::SequencePair pair = test::small_related(300, 280, 4406);
  const scoring::Scheme scheme = scoring::Scheme::paper_defaults();
  const Index m = static_cast<Index>(pair.s0.size());
  const Index n = static_cast<Index>(pair.s1.size());
  ASSERT_GE(m, n);  // One split, by row.
  for (const CellState end : kStates) {
    const Score goal =
        partition_goal(pair.s0.bases(), pair.s1.bases(), CellState::kH, end, scheme);
    ASSERT_FALSE(is_neg_inf(goal));
    for (const bool orthogonal : {true, false}) {
      const std::string label = "end" + std::to_string(static_cast<int>(end)) +
                                (orthogonal ? "_orth" : "_full");
      core::Stage4Config config;
      config.scheme = scheme;
      config.orthogonal = orthogonal;
      config.max_partition_size = m - 1;
      const core::CrosspointList l3 = {Crosspoint{0, 0, 0, CellState::kH},
                                       Crosspoint{m, n, goal, end}};
      const core::Stage4Result result =
          core::run_stage4(pair.s0.bases(), pair.s1.bases(), l3, config);
      ASSERT_EQ(result.crosspoints.size(), 3u) << label;
      EXPECT_EQ(result.crosspoints[1], oracle_split(pair.s0.bases(), pair.s1.bases(),
                                                    CellState::kH, end, goal, scheme, orthogonal))
          << label;
      // Scalar work is one boundary row or column per tile plus the
      // orthogonal pass's last, possibly short, reverse tile: under 5%.
      const auto& scalar =
          result.stats.kernels[static_cast<std::size_t>(engine::KernelId::kScalarGlobal)];
      EXPECT_LT(scalar.cells * 20, result.stats.cells)
          << label << ": " << engine::kernel_usage_summary(result.stats.kernels);
    }
  }
}

}  // namespace
}  // namespace cudalign
