// Stage 4 on engine runs: the midpoint each split finds must be the one the
// linear-space dp sweeps define — forward_to_row/reverse_to_row/match_row
// for the full reverse pass, and the first goal-reaching column from the
// right for the orthogonal one — on random partitions, for every start/end
// state, in both split orientations. The CrossRow suite checks the row
// crossing that the orthogonal pass shares with Stage 2 against the same
// oracle, in both callers' shapes.
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

/// The first goal-reaching junction on row `row` from the right, given the
/// row's forward (H, F) and reverse (H, F) vectors: the crosspoint the
/// orthogonal pass finds, its score the forward value. None if no column
/// reaches `goal`.
std::optional<Crosspoint> first_goal_crossing(Index row, const dp::MiddleRow& fwd,
                                              const dp::MiddleRow& rev, Score goal,
                                              const scoring::Scheme& scheme) {
  for (auto j = static_cast<Index>(rev.cc.size()) - 1; j >= 0; --j) {
    const auto k = static_cast<std::size_t>(j);
    if (!is_neg_inf(fwd.cc[k]) && !is_neg_inf(rev.cc[k]) && fwd.cc[k] + rev.cc[k] == goal) {
      return Crosspoint{row, j, fwd.cc[k], CellState::kH};
    }
    if (!is_neg_inf(fwd.dd[k]) && !is_neg_inf(rev.dd[k]) &&
        fwd.dd[k] + rev.dd[k] + scheme.gap_open() == goal) {
      return Crosspoint{row, j, fwd.dd[k], CellState::kF};
    }
  }
  return std::nullopt;
}

/// The split of the whole (a x b) problem at row m/2, from the dp oracle.
/// `goal` is the partition's score (its start scores 0).
Crosspoint oracle_split(seq::SequenceView a, seq::SequenceView b, CellState start, CellState end,
                        Score goal, const scoring::Scheme& scheme, bool orthogonal) {
  const Index mid = static_cast<Index>(a.size()) / 2;
  const dp::MiddleRow fwd = dp::forward_to_row(a, b, mid, scheme, start);
  const dp::MiddleRow rev = dp::reverse_to_row(a, b, mid, scheme, end);
  if (!orthogonal) {
    const dp::RowMatch match = dp::match_row(fwd.cc, fwd.dd, rev.cc, rev.dd, scheme);
    const auto j = static_cast<std::size_t>(match.j);
    const Score score = match.state == CellState::kH ? fwd.cc[j] : fwd.dd[j];
    return Crosspoint{mid, match.j, score, match.state};
  }
  const std::optional<Crosspoint> hit = first_goal_crossing(mid, fwd, rev, goal, scheme);
  if (!hit) ADD_FAILURE() << "oracle found no goal-reaching column";
  return hit.value_or(Crosspoint{});
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
// row 0 sentinel H (dp::end_corner); the executor runs that column or row
// apart on a scalar sweep, so the rest of the sweep still runs striped.
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
      // Scalar work, in any scalar-global* variant (taps make the tiles ask
      // for one), is the peeled boundary row or column plus the orthogonal
      // pass's last, possibly short, reverse strip: under 5%.
      constexpr auto kLastScalar =
          static_cast<std::size_t>(engine::KernelId::kScalarGlobalTapsFind);
      WideScore scalar_cells = 0;
      for (std::size_t id = 0; id <= kLastScalar; ++id) {
        scalar_cells += result.stats.kernels[id].cells;
      }
      EXPECT_LT(scalar_cells * 20, result.stats.cells)
          << label << ": " << engine::kernel_usage_summary(result.stats.kernels);
    }
  }
}

/// Two in three pairs related (a long gapped optimal path), the rest
/// unrelated random DNA.
seq::SequencePair random_pair(int iter, Index m, Index n, Rng& rng) {
  return iter % 3 == 0 ? seq::SequencePair{test::rand_seq(m, rng.next()),
                                           test::rand_seq(n, rng.next()), "random", false}
                       : test::small_related(m, n, rng.next());
}

/// `s[from, to)` as a view.
seq::SequenceView span_of(seq::SequenceView s, Index from, Index to) {
  return s.subspan(static_cast<std::size_t>(from), static_cast<std::size_t>(to - from));
}

/// cross_row over the pair on one and on four workers, with goal pruning off
/// and on. All four runs must agree on the crossing, the runs of one pruning
/// setting on the cells computed, and every cell must be attributed to a
/// kernel.
std::optional<Crosspoint> checked_cross_row(const seq::SequencePair& pair, const Crosspoint& corner,
                                            const Crosspoint& from,
                                            std::span<const engine::BusCell> forward, bool probe,
                                            const engine::GridSpec& grid,
                                            const scoring::Scheme& scheme,
                                            const std::string& label) {
  const std::vector<seq::Base> s0_rev(pair.s0.bases().rbegin(), pair.s0.bases().rend());
  const std::vector<seq::Base> s1_rev(pair.s1.bases().rbegin(), pair.s1.bases().rend());
  std::optional<core::RowCrossing> unpruned;
  for (const bool prune : {false, true}) {
    std::optional<core::RowCrossing> first;
    for (const std::size_t workers : {1u, 4u}) {
      const std::string where = label + " on " + std::to_string(workers) + " workers, prune " +
                                std::to_string(prune);
      ThreadPool pool(workers);
      const core::RowCrossing got =
          core::cross_row(s0_rev, s1_rev, corner, from, forward, probe, /*from_starts=*/false,
                          prune, grid, scheme, {}, &pool);
      WideScore kernel_cells = 0;
      for (const auto& tally : got.run.kernels) kernel_cells += tally.cells;
      EXPECT_EQ(kernel_cells, got.run.cells) << where;
      if (!unpruned) unpruned = got;
      EXPECT_EQ(got.next, unpruned->next) << where;
      if (!first) first = got;
      EXPECT_EQ(got.run.cells, first->run.cells) << where;
    }
  }
  return unpruned->next;
}

/// The chain's H-type end at (m, n), continuing the path from `last`.
Crosspoint chain_end(const seq::SequencePair& pair, const Crosspoint& last,
                     const scoring::Scheme& scheme) {
  const auto m = static_cast<Index>(pair.s0.size());
  const auto n = static_cast<Index>(pair.s1.size());
  const Score tail = partition_goal(span_of(pair.s0.bases(), last.i, m),
                                    span_of(pair.s1.bases(), last.j, n), last.type,
                                    CellState::kH, scheme);
  return Crosspoint{m, n, last.score + tail, CellState::kH};
}

// Stage 2's shape: `from` carries its local-mode prefix score, the forward
// row is a local-mode row strictly between the start point and `from` with
// its non-positive gap prefixes dropped (Stage 2's rule), and the probe is
// on. The crossing is the oracle's, or the start point when the probe fires
// first. Either way the chain from the start point (found by a probe-only
// crossing of the top rectangle, as Stage 2's last iteration does) through
// `from` telescopes.
TEST(CrossRow, Stage2ShapeMatchesTheDpOracle) {
  Rng rng(4410);
  const std::vector<scoring::Scheme> schemes = test::test_schemes();
  int crossings = 0;
  for (int iter = 0; iter < 24; ++iter) {
    const Index m = 24 + static_cast<Index>(rng.below(100));
    const Index n = 24 + static_cast<Index>(rng.below(100));
    const seq::SequencePair pair = random_pair(iter, m, n, rng);
    const seq::SequenceView s0 = pair.s0.bases();
    const seq::SequenceView s1 = pair.s1.bases();
    const scoring::Scheme& scheme = schemes[static_cast<std::size_t>(iter) % schemes.size()];
    const engine::GridSpec grid =
        test::tiny_grid(1 + static_cast<Index>(rng.below(3)), 1 + static_cast<Index>(rng.below(8)),
                        1 + static_cast<Index>(rng.below(2)));
    // `from` stops short of (m, n), so the chain can end there in state H.
    const Index fi = m - 1 - static_cast<Index>(rng.below(static_cast<std::uint64_t>(m / 4)));
    const Index fj = n - 1 - static_cast<Index>(rng.below(static_cast<std::uint64_t>(n / 4)));
    const auto fj_k = static_cast<std::size_t>(fj);
    const dp::RowVectors prefix = dp::sweep_rows(s0.first(static_cast<std::size_t>(fi)),
                                                 s1.first(fj_k), scheme, dp::AlignMode::kLocal);
    for (const CellState end : kStates) {
      const std::string label = "iter" + std::to_string(iter) + "_" + std::to_string(m) + "x" +
                                std::to_string(n) + "_e" + std::to_string(static_cast<int>(end));
      const Score goal =
          dp::value_in_state(dp::CellHEF{prefix.h[fj_k], prefix.e[fj_k], prefix.f[fj_k]}, end);
      if (is_neg_inf(goal) || goal <= 0) continue;
      const Crosspoint from{fi, fj, goal, end};
      const std::optional<Crosspoint> start =
          checked_cross_row(pair, Crosspoint{}, from, {}, true, grid, scheme, label + "_top");
      ASSERT_TRUE(start.has_value()) << label;
      if (from.i - start->i < 2) continue;  // No row strictly between.
      const auto between = static_cast<std::uint64_t>(from.i - start->i - 1);
      const Index row = start->i + 1 + static_cast<Index>(rng.below(between));

      const dp::RowVectors local = dp::sweep_rows(s0.first(static_cast<std::size_t>(row)), s1,
                                                  scheme, dp::AlignMode::kLocal);
      dp::MiddleRow fwd;
      std::vector<engine::BusCell> forward;
      for (std::size_t j = 0; j < local.h.size(); ++j) {
        const Score gap = local.f[j] <= 0 ? kNegInf : local.f[j];
        fwd.cc.push_back(local.h[j]);
        fwd.dd.push_back(gap);
        forward.push_back(engine::BusCell{local.h[j], gap});
      }
      const dp::MiddleRow rev = dp::reverse_to_row(s0.first(static_cast<std::size_t>(fi)),
                                                   s1.first(fj_k), row, scheme, end);
      const std::optional<Crosspoint> want = first_goal_crossing(row, fwd, rev, goal, scheme);
      const std::optional<Crosspoint> next =
          checked_cross_row(pair, Crosspoint{row, 0, 0}, from, forward, true, grid, scheme, label);
      ASSERT_TRUE(next.has_value()) << label;

      core::CrosspointList chain;
      if (want && *next == *want) {
        ++crossings;
        const std::optional<Crosspoint> first =
            checked_cross_row(pair, Crosspoint{}, *next, {}, true, grid, scheme, label + "_rest");
        ASSERT_TRUE(first.has_value()) << label;
        chain = {*first, *next, from};
      } else {
        // The probe's start point, inside the rectangle.
        EXPECT_EQ(next->score, 0) << label;
        EXPECT_EQ(next->type, CellState::kH) << label;
        EXPECT_GE(next->i, row) << label;
        chain = {*next, from};
      }
      chain.push_back(chain_end(pair, from, scheme));
      EXPECT_NO_THROW(core::validate_chain_scores(chain, s0, s1, scheme)) << label;
    }
  }
  EXPECT_GT(crossings, 20);
}

// Stage 4's shape: a partition inside the matrix (corner.j > 0) whose start
// carries a base score, the best global prefix into its start state,
// crossed at its middle row without the probe. The crossing is the
// oracle's, and the chain from the origin through the partition to (m, n)
// telescopes.
TEST(CrossRow, Stage4ShapeMatchesTheDpOracle) {
  Rng rng(4411);
  const std::vector<scoring::Scheme> schemes = test::test_schemes();
  int cases = 0;
  for (int iter = 0; iter < 16; ++iter) {
    const Index m = 24 + static_cast<Index>(rng.below(100));
    const Index n = 24 + static_cast<Index>(rng.below(100));
    const seq::SequencePair pair = random_pair(iter, m, n, rng);
    const seq::SequenceView s0 = pair.s0.bases();
    const seq::SequenceView s1 = pair.s1.bases();
    const scoring::Scheme& scheme = schemes[static_cast<std::size_t>(iter) % schemes.size()];
    const engine::GridSpec grid =
        test::tiny_grid(1 + static_cast<Index>(rng.below(3)), 1 + static_cast<Index>(rng.below(8)),
                        1 + static_cast<Index>(rng.below(2)));
    const auto quarter = [&](Index len) {
      return static_cast<Index>(rng.below(static_cast<std::uint64_t>(len / 4)));
    };
    const Index i0 = 1 + quarter(m);
    const Index j0 = 1 + quarter(n);
    const Index i1 = m - 1 - quarter(m);
    const Index j1 = n - 1 - quarter(n);
    const seq::SequenceView a = span_of(s0, i0, i1);
    const seq::SequenceView b = span_of(s1, j0, j1);
    const Index mid = (i1 - i0) / 2;
    for (const CellState start : kStates) {
      const Score base = partition_goal(s0.first(static_cast<std::size_t>(i0)),
                                        s1.first(static_cast<std::size_t>(j0)), CellState::kH,
                                        start, scheme);
      const dp::MiddleRow fwd = dp::forward_to_row(a, b, mid, scheme, start);
      std::vector<engine::BusCell> forward;
      for (std::size_t j = 0; j < fwd.cc.size(); ++j) {
        forward.push_back(engine::BusCell{fwd.cc[j], fwd.dd[j]});
      }
      for (const CellState end : kStates) {
        const std::string label = "iter" + std::to_string(iter) + "_" + std::to_string(m) + "x" +
                                  std::to_string(n) + "_s" +
                                  std::to_string(static_cast<int>(start)) + "_e" +
                                  std::to_string(static_cast<int>(end));
        const Score goal = partition_goal(a, b, start, end, scheme);
        if (is_neg_inf(goal)) continue;
        const dp::MiddleRow rev = dp::reverse_to_row(a, b, mid, scheme, end);
        const std::optional<Crosspoint> want = first_goal_crossing(mid, fwd, rev, goal, scheme);
        ASSERT_TRUE(want.has_value()) << label;
        const Crosspoint from{i1, j1, base + goal, end};
        const std::optional<Crosspoint> next = checked_cross_row(
            pair, Crosspoint{i0 + mid, j0, base}, from, forward, false, grid, scheme, label);
        ASSERT_TRUE(next.has_value()) << label;
        EXPECT_EQ(*next,
                  (Crosspoint{i0 + mid, j0 + want->j, base + want->score, want->type}))
            << label;
        const core::CrosspointList chain = {Crosspoint{}, Crosspoint{i0, j0, base, start}, *next,
                                            from, chain_end(pair, from, scheme)};
        EXPECT_NO_THROW(core::validate_chain_scores(chain, s0, s1, scheme)) << label;
        ++cases;
      }
    }
  }
  EXPECT_GT(cases, 100);
}

}  // namespace
}  // namespace cudalign
