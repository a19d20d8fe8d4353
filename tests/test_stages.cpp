// Stage-by-stage correctness: each stage's output is validated against
// independent references (linear local best for Stage 1; quadratic partition
// re-scoring for the crosspoint chains of Stages 2-4).
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/io_util.hpp"
#include "core/stages.hpp"
#include "dp/linear.hpp"
#include "test_util.hpp"

namespace cudalign::core {
namespace {

using test::rand_seq;
using test::tiny_grid;

scoring::Scheme paper() { return scoring::Scheme::paper_defaults(); }

/// A tally whose fields all differ and are non-zero: field k holds base + k.
engine::Tally numbered_tally(std::int64_t base) {
  engine::Tally t;
  t.cells = base + 1;
  t.pruned_cells = base + 2;
  t.pruned_tiles = base + 3;
  t.tiles = base + 4;
  t.narrow_rerun_tiles = base + 5;
  t.narrow_rerun_cells = base + 6;
  t.hbus_bytes = base + 7;
  t.vbus_bytes = base + 8;
  for (std::size_t k = 0; k < t.kernels.size(); ++k) {
    const auto offset = static_cast<std::int64_t>(2 * k);
    t.kernels[k] = engine::KernelTally{base + 9 + offset, base + 10 + offset};
  }
  return t;
}

TEST(Tally, FoldSumsEveryField) {
  const engine::Tally a = numbered_tally(100);
  const engine::Tally b = numbered_tally(1000);
  engine::Tally sum = a;
  sum += b;
  EXPECT_EQ(sum.cells, a.cells + b.cells);
  EXPECT_EQ(sum.pruned_cells, a.pruned_cells + b.pruned_cells);
  EXPECT_EQ(sum.pruned_tiles, a.pruned_tiles + b.pruned_tiles);
  EXPECT_EQ(sum.tiles, a.tiles + b.tiles);
  EXPECT_EQ(sum.narrow_rerun_tiles, a.narrow_rerun_tiles + b.narrow_rerun_tiles);
  EXPECT_EQ(sum.narrow_rerun_cells, a.narrow_rerun_cells + b.narrow_rerun_cells);
  EXPECT_EQ(sum.hbus_bytes, a.hbus_bytes + b.hbus_bytes);
  EXPECT_EQ(sum.vbus_bytes, a.vbus_bytes + b.vbus_bytes);
  for (std::size_t k = 0; k < sum.kernels.size(); ++k) {
    EXPECT_EQ(sum.kernels[k].tiles, a.kernels[k].tiles + b.kernels[k].tiles) << k;
    EXPECT_EQ(sum.kernels[k].cells, a.kernels[k].cells + b.kernels[k].cells) << k;
  }
}

TEST(StageStats, AddRunFoldsTheTallyAndKeepsHighWaterMarks) {
  engine::RunStats first;
  static_cast<engine::Tally&>(first) = numbered_tally(100);
  first.blocks_used = 7;
  first.bus_bytes = 500;
  first.tiles_stolen = 3;
  first.starvation_waits = 4;
  first.special_row_wait_seconds = 0.25;
  engine::RunStats second;
  static_cast<engine::Tally&>(second) = numbered_tally(1000);
  second.blocks_used = 5;
  second.bus_bytes = 900;
  second.tiles_stolen = 10;
  second.starvation_waits = 20;
  second.special_row_wait_seconds = 0.5;

  StageStats stage;
  stage.add_run(first);
  stage.add_run(second);
  engine::Tally want = numbered_tally(100);
  want += numbered_tally(1000);
  EXPECT_EQ(static_cast<const engine::Tally&>(stage), want);
  EXPECT_EQ(stage.blocks_used, 7);    // Max, from the first run.
  EXPECT_EQ(stage.ram_bytes, 900u);   // Max, from the second run.
  EXPECT_EQ(stage.tiles_stolen, 13);
  EXPECT_EQ(stage.starvation_waits, 24);
  EXPECT_DOUBLE_EQ(stage.sra_flush_wait_seconds, 0.75);
}

struct StageHarness {
  seq::SequencePair pair;
  TempDir dir;
  sra::SpecialRowsArea rows;
  sra::SpecialRowsArea cols;

  explicit StageHarness(seq::SequencePair p, std::int64_t rows_budget = 1 << 20,
                        std::int64_t cols_budget = 1 << 20)
      : pair(std::move(p)),
        dir("stage-test"),
        rows(dir.path() / "rows", rows_budget),
        cols(dir.path() / "cols", cols_budget) {}

  Stage1Result stage1(engine::GridSpec grid = tiny_grid(3, 4, 2), bool block_pruning = true) {
    Stage1Config c;
    c.scheme = paper();
    c.grid = grid;
    c.block_pruning = block_pruning;
    c.rows_area = &rows;
    return run_stage1(pair.s0.bases(), pair.s1.bases(), c);
  }

  Stage2Result stage2(const Crosspoint& end, engine::GridSpec grid = tiny_grid(3, 4, 2),
                      ThreadPool* pool = nullptr, check::BusAuditor* bus_audit = nullptr) {
    Stage2Config c;
    c.scheme = paper();
    c.grid = grid;
    c.rows_area = &rows;
    c.cols_area = &cols;
    c.pool = pool;
    c.bus_audit = bus_audit;
    return run_stage2(pair.s0.bases(), pair.s1.bases(), end, c);
  }

  /// Every special column in the columns area, in storage order: key
  /// (position, begin, end, group) and cells.
  using StoredColumn = std::tuple<Index, Index, Index, std::int64_t, std::vector<engine::BusCell>>;
  std::vector<StoredColumn> stored_columns() const {
    std::vector<StoredColumn> out;
    for (std::size_t id = 0; id < cols.size(); ++id) {
      const sra::RowKey& key = cols.key(id);
      out.emplace_back(key.position, key.begin, key.end, key.group, cols.get(id));
    }
    return out;
  }

  Stage3Result stage3(const CrosspointList& l2, engine::GridSpec grid = tiny_grid(3, 4, 2)) {
    Stage3Config c;
    c.scheme = paper();
    c.grid = grid;
    c.cols_area = &cols;
    return run_stage3(pair.s0.bases(), pair.s1.bases(), l2, c);
  }
};

TEST(Stage1, BestMatchesLinearReference) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    for (const bool prune : {false, true}) {
      StageHarness h(test::small_related(180, 190, 2000 + seed));
      const auto st1 = h.stage1(tiny_grid(3, 4, 2), prune);
      const auto expected =
          dp::linear_local_best(h.pair.s0.bases(), h.pair.s1.bases(), paper());
      EXPECT_EQ(st1.end_point.score, expected.score);
      EXPECT_EQ(st1.end_point.i, expected.i);
      EXPECT_EQ(st1.end_point.j, expected.j);
      EXPECT_GT(st1.special_rows_saved, 0);
      // Unpruned, Stage 1 visits all m*n cells (the paper's Cells_1); pruned,
      // the computed and the pruned cells still cover the matrix.
      const auto matrix = static_cast<WideScore>(h.pair.s0.size() * h.pair.s1.size());
      if (prune) {
        EXPECT_EQ(st1.stats.cells + st1.stats.pruned_cells, matrix);
      } else {
        EXPECT_EQ(st1.stats.cells, matrix);
        EXPECT_EQ(st1.stats.pruned_cells, 0);
      }
    }
  }
}

TEST(Stage1, NoFlushWhenAreaAbsent) {
  StageHarness h(test::small_related(100, 100, 3000));
  Stage1Config c;
  c.scheme = paper();
  c.grid = tiny_grid(3, 4, 2);
  c.rows_area = nullptr;
  const auto st1 = run_stage1(h.pair.s0.bases(), h.pair.s1.bases(), c);
  EXPECT_EQ(st1.special_rows_saved, 0);
  EXPECT_EQ(st1.flush_interval, 0);
  EXPECT_GT(st1.end_point.score, 0);
}

TEST(Stage1, TinyBudgetRaisesFlushInterval) {
  const auto pair = test::small_related(400, 200, 3100);
  // Budget for exactly two rows of 201 cells.
  const std::int64_t budget = 2 * 8 * 201;
  StageHarness h(pair, budget);
  const auto st1 = h.stage1(tiny_grid(2, 4, 2));  // strip 8 rows -> 50 strips.
  EXPECT_GE(st1.flush_interval, 25);
  EXPECT_LE(st1.special_rows_saved, 2);
  EXPECT_LE(h.rows.used_bytes(), budget);
}

// A special row's resume trailer is the best (score, i, j), then, when
// pruning, the kPruneLag lagged bests: its length does not follow the grid.
TEST(Stage1, ResumeTrailerLengthIsIndependentOfTheGrid) {
  const auto pair = test::small_related(300, 290, 3150);
  for (const Index blocks : {2, 3, 12}) {
    for (const bool prune : {false, true}) {
      StageHarness h(pair);
      (void)h.stage1(tiny_grid(blocks, 4, 2), prune);
      const auto members = h.rows.group_members(1);
      ASSERT_GT(members.size(), 2u);
      for (const std::size_t id : members) {
        std::vector<std::int64_t> trailer;
        (void)h.rows.get(id, &trailer);
        EXPECT_EQ(trailer.size(), static_cast<std::size_t>(prune ? 3 + engine::kPruneLag : 3))
            << blocks << " blocks, prune " << prune << ", row " << h.rows.key(id).position;
      }
    }
  }
}

// Stage 1 hands special rows to the SRA writer thread (sra/async_writer.hpp).
// At any worker count, every stored row must be byte-identical to the row
// the reference sweep flushes at the same interval, and every flushed row
// must be durably acknowledged.
TEST(Stage1, StoredRowsMatchReferenceAcrossExecutors) {
  const auto pair = test::small_related(300, 290, 3200);
  for (const int workers : {1, 4}) {
    const std::string label = "workers " + std::to_string(workers);
    StageHarness h(pair);
    ThreadPool pool(workers);
    Stage1Config c;
    c.scheme = paper();
    c.grid = tiny_grid(3, 4, 2);
    c.block_pruning = false;  // The reference sweep computes every cell.
    c.rows_area = &h.rows;
    c.pool = &pool;
    const auto st1 = run_stage1(pair.s0.bases(), pair.s1.bases(), c);

    engine::ProblemSpec spec;
    spec.a = pair.s0.bases();
    spec.b = pair.s1.bases();
    spec.recurrence = engine::Recurrence::local(paper());
    spec.grid = c.grid;
    engine::Hooks hooks;
    hooks.special_row_interval = st1.flush_interval;
    std::vector<std::pair<Index, std::vector<engine::BusCell>>> expected;
    hooks.on_special_row = [&](Index row, std::span<const engine::BusCell> cells,
                               const dp::LocalBest&, const engine::PruneState&) {
      expected.emplace_back(row, std::vector<engine::BusCell>(cells.begin(), cells.end()));
    };
    (void)engine::run_reference(spec, hooks);
    ASSERT_GT(expected.size(), 2u) << label;

    EXPECT_EQ(st1.special_rows_saved, static_cast<Index>(expected.size())) << label;
    EXPECT_EQ(st1.stats.sra_rows_flushed, st1.special_rows_saved) << label;
    EXPECT_EQ(st1.stats.sra_rows_acked, st1.special_rows_saved) << label;
    const auto members = h.rows.group_members(1);
    ASSERT_EQ(members.size(), expected.size()) << label;
    for (std::size_t k = 0; k < expected.size(); ++k) {
      const auto& [row, cells] = expected[k];
      EXPECT_EQ(h.rows.key(members[k]).position, row) << label;
      const auto stored = h.rows.get(members[k]);
      ASSERT_EQ(stored.size(), cells.size()) << label << " row " << row;
      EXPECT_EQ(std::memcmp(stored.data(), cells.data(), cells.size() * sizeof(engine::BusCell)),
                0)
          << label << " stored row " << row << " differs from the reference";
    }
  }
}

TEST(Stage2, ChainIsValidAndTelescopes) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    StageHarness h(test::small_related(200, 210, 4000 + seed));
    const auto st1 = h.stage1();
    const auto st2 = h.stage2(st1.end_point);
    ASSERT_GE(st2.crosspoints.size(), 2u);
    EXPECT_EQ(st2.crosspoints.back(), st1.end_point);
    validate_chain_scores(st2.crosspoints, h.pair.s0.bases(), h.pair.s1.bases(), paper());
  }
}

TEST(Stage2, CrosspointsSitOnSpecialRows) {
  StageHarness h(test::small_related(300, 300, 4100));
  const auto st1 = h.stage1();
  const auto st2 = h.stage2(st1.end_point);
  std::vector<Index> row_positions;
  for (const auto id : h.rows.group_members(1)) {
    row_positions.push_back(h.rows.key(id).position);
  }
  for (std::size_t k = 1; k + 1 < st2.crosspoints.size(); ++k) {
    const auto& cp = st2.crosspoints[k];
    EXPECT_TRUE(std::find(row_positions.begin(), row_positions.end(), cp.i) !=
                row_positions.end())
        << "intermediate crosspoint not on a special row: i=" << cp.i;
  }
}

TEST(Stage2, ShortAlignmentFindsStartWithoutCrossingRows) {
  // An unrelated pair with a small planted island (rows 62-85). A rows
  // budget of three special rows flushes every 7th strip of 8 rows, rows 56
  // and 112, so the optimal alignment crosses no special row at all.
  StageHarness h(seq::make_unrelated_pair(150, 150, 20, 4200), 3 * 8 * 151);
  const auto st1 = h.stage1();
  ASSERT_EQ(st1.special_rows_saved, 2);
  ASSERT_GT(st1.end_point.score, 0);
  const auto st2 = h.stage2(st1.end_point);
  validate_chain_scores(st2.crosspoints, h.pair.s0.bases(), h.pair.s1.bases(), paper());
  ASSERT_EQ(st2.crosspoints.size(), 2u);  // The start point and the end point.
  const auto& start = st2.crosspoints.front();
  EXPECT_EQ(start.score, 0);
  EXPECT_EQ(start.type, dp::CellState::kH);
  // The end point's wave is one member wide: nothing to speculate on.
  EXPECT_EQ(st2.speculation.waves, 1);
  EXPECT_EQ(st2.speculation.discarded_iterations, 0);
}

/// Stage 2 at `workers` pool workers must reproduce `want`, the audited run
/// (which crosses one special row at a time, as the paper's chain does):
/// the crosspoints, the special columns in storage order, and the tally.
void expect_serial_chain(const seq::SequencePair& pair, std::int64_t rows_budget,
                         bool block_pruning, const Stage2Result& want,
                         const std::vector<StageHarness::StoredColumn>& want_columns,
                         std::size_t workers, Stage2Speculation* speculation = nullptr) {
  const std::string label = "workers " + std::to_string(workers);
  StageHarness h(pair, rows_budget);
  ThreadPool pool(workers);
  const auto st1 = h.stage1(tiny_grid(3, 4, 2), block_pruning);
  const auto got = h.stage2(st1.end_point, tiny_grid(3, 4, 2), &pool);
  EXPECT_EQ(got.crosspoints, want.crosspoints) << label;
  EXPECT_EQ(got.special_cols_saved, want.special_cols_saved) << label;
  EXPECT_TRUE(h.stored_columns() == want_columns) << label << ": special columns differ";
  EXPECT_EQ(got.stats.cells, want.stats.cells) << label;
  EXPECT_TRUE(static_cast<const engine::Tally&>(got.stats) == want.stats) << label;
  EXPECT_EQ(got.stats.sra_bytes_read, want.stats.sra_bytes_read) << label;
  const Stage2Speculation& s = got.speculation;
  EXPECT_EQ(s.waves + s.guess_hits + s.reruns + 1, static_cast<Index>(got.crosspoints.size()))
      << label;
  if (speculation != nullptr) *speculation = s;
}

TEST(Stage2, WavesReproduceTheSerialChainAtAnyPoolSize) {
  const auto pair = test::small_related(300, 290, 4400);
  // Dense rows (one per 8-row strip: one-chunk rectangles, so every pool
  // speculates) and sparse ones (3-chunk rectangles: a pool of at most 3
  // threads runs them one at a time, on the whole pool).
  for (const std::int64_t rows_budget : {std::int64_t{1} << 20, std::int64_t{6 * 8 * 291}}) {
    StageHarness serial(pair, rows_budget);
    const auto st1 = serial.stage1();
    check::BusAuditor auditor;
    const auto want = serial.stage2(st1.end_point, tiny_grid(3, 4, 2), nullptr, &auditor);
    EXPECT_TRUE(auditor.ok()) << auditor.report();
    ASSERT_GT(want.crosspoints.size(), 4u);
    // Audited: one member per wave.
    EXPECT_EQ(want.speculation.waves + 1, static_cast<Index>(want.crosspoints.size()));
    EXPECT_EQ(want.speculation.discarded_iterations, 0);
    const auto want_columns = serial.stored_columns();
    const bool sparse = rows_budget < (1 << 20);
    // Sparse rows leave rectangles tall enough for special columns.
    EXPECT_EQ(want_columns.empty(), !sparse);

    for (const std::size_t workers : {1, 2, 4}) {
      Stage2Speculation s;
      expect_serial_chain(pair, rows_budget, true, want, want_columns, workers, &s);
      if (sparse && workers < 3) {
        EXPECT_EQ(s.waves + 1, static_cast<Index>(want.crosspoints.size())) << workers;
      } else {
        EXPECT_GT(s.guess_hits, 0) << workers;
      }
    }
  }
}

TEST(Stage2, MissedGuessesRerunWithTheSameOutput) {
  // s1 ends in an exact copy of s0's first 150 bases, off the optimal path.
  // On the special rows crossing the copy, its diagonal out-scores the path,
  // so the rightmost argmax of H lies on the copy: those guesses miss, and
  // the members re-run from the true crosspoints.
  const auto related = test::small_related(400, 400, 4500);
  const std::string s0 = related.s0.to_string();
  const std::string s1 =
      related.s1.to_string() + test::rand_seq(100, 4501).to_string() + s0.substr(0, 150);
  const seq::SequencePair pair{seq::Sequence::from_string("s0", s0),
                               seq::Sequence::from_string("s1", s1), "decoy"};
  const std::int64_t rows_budget = 1 << 20;
  // Unpruned, so Stage 1 computes the copy's cells and they reach the rows.
  StageHarness serial(pair, rows_budget);
  const auto st1 = serial.stage1(tiny_grid(3, 4, 2), /*block_pruning=*/false);
  ASSERT_LE(st1.end_point.j, 400);  // The optimum is the related pair's.
  check::BusAuditor auditor;
  const auto want = serial.stage2(st1.end_point, tiny_grid(3, 4, 2), nullptr, &auditor);
  validate_chain_scores(want.crosspoints, pair.s0.bases(), pair.s1.bases(), paper());
  const auto want_columns = serial.stored_columns();

  for (const std::size_t workers : {1, 4}) {
    Stage2Speculation s;
    expect_serial_chain(pair, rows_budget, false, want, want_columns, workers, &s);
    EXPECT_GE(s.reruns, 1) << workers;
    EXPECT_GE(s.discarded_iterations, 1) << workers;
  }
}

TEST(Stage2, ProcessedAreaShrinksWithMoreSpecialRows) {
  const auto pair = test::small_related(600, 300, 4300);
  WideScore cells_few = 0, cells_many = 0;
  {
    StageHarness h(pair, 4 * 8 * 301);  // Budget for ~4 rows.
    const auto st1 = h.stage1(tiny_grid(2, 2, 2));
    cells_few = h.stage2(st1.end_point).stats.cells;
  }
  {
    StageHarness h(pair, 1 << 22);  // Budget for every strip boundary.
    const auto st1 = h.stage1(tiny_grid(2, 2, 2));
    cells_many = h.stage2(st1.end_point).stats.cells;
  }
  EXPECT_LT(cells_many, cells_few);
}

TEST(Stage3, RefinedChainTelescopes) {
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    StageHarness h(test::small_related(250, 250, 5000 + seed));
    const auto st1 = h.stage1();
    const auto st2 = h.stage2(st1.end_point);
    const auto st3 = h.stage3(st2.crosspoints);
    EXPECT_GE(st3.crosspoints.size(), st2.crosspoints.size());
    validate_chain_scores(st3.crosspoints, h.pair.s0.bases(), h.pair.s1.bases(), paper());
  }
}

TEST(Stage3, AddsCrosspointsOnSpecialColumns) {
  // Few special rows (tight rows budget) so each stage-2 iteration spans a
  // tall rectangle and flushes several special columns before its match.
  const auto pair = test::small_related(400, 400, 5100);
  StageHarness h(pair, 3 * 8 * 401, 1 << 20);
  const auto st1 = h.stage1(tiny_grid(2, 2, 2));
  const auto st2 = h.stage2(st1.end_point, tiny_grid(2, 2, 2));
  ASSERT_GT(st2.special_cols_saved, 0);
  const auto st3 = h.stage3(st2.crosspoints, tiny_grid(2, 2, 2));
  EXPECT_GT(st3.crosspoints.size(), st2.crosspoints.size());
  validate_chain_scores(st3.crosspoints, h.pair.s0.bases(), h.pair.s1.bases(), paper());
}

// Goal pruning keeps a crossing whose path runs down a long vertical gap
// between two special columns. Here s0 is s1 with 60 bases inserted at 100,
// so the optimal global path crosses the special column at 52 on its
// diagonal, runs down column 100 through the insertion, and crosses the
// column at 150 further down. The crossing of column 150 starts from the
// crosspoint on 52 and enters the tiles of the insertion rows from above.
// Pruned or not, L_3 is the same, and pruning skips tiles.
TEST(Stage3, GoalPruningBoundsEveryColumnRightOfTheTile) {
  const std::string a = rand_seq(100, 5200).to_string();
  const std::string b = rand_seq(100, 5201).to_string();
  // The insertion's ends differ from the bases beside it, so the gap run
  // cannot slide to another column at the same score.
  std::string insert = rand_seq(60, 5202).to_string();
  insert.front() = b.front() == 'A' ? 'C' : 'A';
  insert.back() = a.back() == 'A' ? 'C' : 'A';
  const seq::SequencePair pair{seq::Sequence::from_string("s0", a + insert + b),
                               seq::Sequence::from_string("s1", a + b), "insertion"};
  const auto m = static_cast<Index>(pair.s0.size());
  const auto n = static_cast<Index>(pair.s1.size());
  const dp::RowVectors last = dp::sweep_rows(pair.s0.bases(), pair.s1.bases(), paper(),
                                             dp::AlignMode::kGlobal, dp::CellState::kH);
  const Score goal = last.h[static_cast<std::size_t>(n)];
  const CrosspointList l2 = {Crosspoint{0, 0, 0, dp::CellState::kH},
                             Crosspoint{m, n, goal, dp::CellState::kH}};

  // Stage 2's special columns of the one partition: the reverse (H, E) at
  // each column, rows 0..m, from the transposed reverse sweep.
  StageHarness h(pair);
  for (const Index col : {52, 150}) {
    const dp::MiddleRow rev =
        dp::reverse_to_row(pair.s1.bases(), pair.s0.bases(), col, paper(), dp::CellState::kH);
    std::vector<engine::BusCell> cells;
    for (std::size_t i = 0; i < rev.cc.size(); ++i) cells.push_back({rev.cc[i], rev.dd[i]});
    (void)h.cols.put(sra::RowKey{col, 0, m, kColsGroupBase}, cells);
  }

  std::optional<Stage3Result> all;
  for (const bool prune : {false, true}) {
    Stage3Config c;
    c.scheme = paper();
    c.grid = tiny_grid(4, 4, 2);  // 8-row strips, chunks (0, 50], (50, 100], ...
    c.cols_area = &h.cols;
    c.block_pruning = prune;
    Stage3Result st3 = run_stage3(pair.s0.bases(), pair.s1.bases(), l2, c);
    ASSERT_EQ(st3.crosspoints.size(), 4u) << "prune " << prune;
    EXPECT_EQ(st3.crosspoints[1].j, 52);
    EXPECT_EQ(st3.crosspoints[2].j, 150);
    EXPECT_GT(st3.crosspoints[2].i, 160);  // Below the insertion.
    validate_chain_scores(st3.crosspoints, pair.s0.bases(), pair.s1.bases(), paper());
    if (!prune) {
      all = std::move(st3);
      continue;
    }
    EXPECT_EQ(st3.crosspoints, all->crosspoints);
    EXPECT_GT(st3.stats.pruned_tiles, 0);
  }
}

/// Stage 3 on the one-partition L_2 from (0, 0) to (m, n) of `pair`, both
/// ends in state H, whose special `columns` are put by hand as Stage 2
/// stores them: the reverse (H, E) at each column, rows 0..m, from the
/// transposed reverse sweep. L_3 must telescope, with one crosspoint per
/// column, and be the same with goal pruning on and off.
CrosspointList split_by_hand(const seq::SequencePair& pair, const std::vector<Index>& columns,
                             const engine::GridSpec& grid) {
  const auto m = static_cast<Index>(pair.s0.size());
  const auto n = static_cast<Index>(pair.s1.size());
  const Score goal = dp::sweep_rows(pair.s0.bases(), pair.s1.bases(), paper(),
                                    dp::AlignMode::kGlobal, dp::CellState::kH)
                         .h[static_cast<std::size_t>(n)];
  const CrosspointList l2 = {Crosspoint{0, 0, 0, dp::CellState::kH},
                             Crosspoint{m, n, goal, dp::CellState::kH}};
  StageHarness h(pair);
  for (const Index col : columns) {
    const dp::MiddleRow rev =
        dp::reverse_to_row(pair.s1.bases(), pair.s0.bases(), col, paper(), dp::CellState::kH);
    std::vector<engine::BusCell> cells;
    for (std::size_t i = 0; i < rev.cc.size(); ++i) cells.push_back({rev.cc[i], rev.dd[i]});
    (void)h.cols.put(sra::RowKey{col, 0, m, kColsGroupBase}, cells);
  }
  std::optional<CrosspointList> all;
  for (const bool prune : {false, true}) {
    Stage3Config c;
    c.scheme = paper();
    c.grid = grid;
    c.cols_area = &h.cols;
    c.block_pruning = prune;
    const Stage3Result st3 = run_stage3(pair.s0.bases(), pair.s1.bases(), l2, c);
    EXPECT_EQ(st3.crosspoints.size(), columns.size() + 2) << "prune " << prune;
    EXPECT_NO_THROW(validate_chain_scores(st3.crosspoints, pair.s0.bases(), pair.s1.bases(),
                                          paper()))
        << "prune " << prune;
    if (all) {
      EXPECT_EQ(st3.crosspoints, *all);
    }
    all = st3.crosspoints;
  }
  return *all;
}

// A special column inside a horizontal gap run: s1 is s0 with 60 bases
// inserted at 100, so the optimal path crosses column 130 inside the run, in
// state E. Its L_3 score must be the forward gap prefix, end.score -
// rev.gap - G_open (validate_chain_scores telescopes it), and the crossing
// of column 200 starts from it, inside the run.
TEST(Stage3, CrossesASpecialColumnInsideAGapRun) {
  const std::string a = rand_seq(100, 5300).to_string();
  const std::string b = rand_seq(100, 5301).to_string();
  // The insertion's ends differ from the bases beside it, so the gap run
  // cannot slide to another row at the same score.
  std::string insert = rand_seq(60, 5302).to_string();
  insert.front() = b.front() == 'A' ? 'C' : 'A';
  insert.back() = a.back() == 'A' ? 'C' : 'A';
  const seq::SequencePair pair{seq::Sequence::from_string("s0", a + b),
                               seq::Sequence::from_string("s1", a + insert + b), "gap-run"};
  const CrosspointList l3 = split_by_hand(pair, {52, 130, 200}, tiny_grid(4, 4, 2));
  ASSERT_EQ(l3.size(), 5u);
  EXPECT_EQ(l3[2], (Crosspoint{100, 130, l3[2].score, dp::CellState::kE}));
  EXPECT_EQ(l3[3].i, 140);
}

// Regression for e2ebench `related` seed 631 (seq::make_related_pair(100000,
// 100000, 631), default grids, 256 MiB SRA). The optimal paths of Stage 2's
// partition (90112, 85476) -> (90624, 88910) cross its special columns
// 85838, 86350, ..., 88398 inside a long horizontal gap run, where each
// column has hits on several co-optimal paths. Matched each on its own against the run
// from the partition start, the crosspoints on 87886 and 88398 came from two
// different paths: the partition between them had goal -1018, its best path
// scores -1021, and Stage 4 aborted. Crossed in turn, each from the
// crosspoint before it, they lie on one path. Here the partition is cut out
// as its own pair, its columns put by hand.
TEST(Stage3, RelatedSeed631CrosspointsLieOnOnePath) {
  const seq::SequencePair whole = seq::make_related_pair(100000, 100000, 631);
  const auto cut = [](const seq::Sequence& s, Index from, Index to) {
    const seq::SequenceView v = s.bases().subspan(static_cast<std::size_t>(from),
                                                  static_cast<std::size_t>(to - from));
    return seq::Sequence(s.name(), std::vector<seq::Base>(v.begin(), v.end()));
  };
  const seq::SequencePair pair{cut(whole.s0, 90112, 90624), cut(whole.s1, 85476, 88910),
                               "related-631-partition"};
  (void)split_by_hand(pair, {362, 874, 1386, 1898, 2410, 2922},
                      engine::GridSpec::stage23_defaults());
}

TEST(Stage4, PartitionsShrinkBelowMaxSize) {
  // Tight SRA budget: few special rows, so Stage 4 receives large partitions.
  StageHarness h(test::small_related(300, 300, 6000), 3 * 8 * 301);
  const auto st1 = h.stage1();
  const auto st2 = h.stage2(st1.end_point);
  Stage4Config c4;
  c4.scheme = paper();
  c4.max_partition_size = 16;
  const auto st4 = run_stage4(h.pair.s0.bases(), h.pair.s1.bases(), st2.crosspoints, c4);
  validate_chain_scores(st4.crosspoints, h.pair.s0.bases(), h.pair.s1.bases(), paper());
  for (const auto& p : partitions_of(st4.crosspoints)) {
    EXPECT_LE(p.size(), 16);
  }
  EXPECT_FALSE(st4.iterations.empty());
}

TEST(Stage4, OrthogonalAndFullReverseAgreeOnChainValidity) {
  StageHarness h(test::small_related(220, 260, 6100));
  const auto st1 = h.stage1();
  const auto st2 = h.stage2(st1.end_point);
  for (const bool orthogonal : {false, true}) {
    Stage4Config c4;
    c4.scheme = paper();
    c4.max_partition_size = 12;
    c4.orthogonal = orthogonal;
    const auto st4 = run_stage4(h.pair.s0.bases(), h.pair.s1.bases(), st2.crosspoints, c4);
    validate_chain_scores(st4.crosspoints, h.pair.s0.bases(), h.pair.s1.bases(), paper());
  }
}

TEST(Stage4, OrthogonalProcessesFewerCells) {
  StageHarness h(test::small_related(500, 500, 6200), 3 * 8 * 501);
  const auto st1 = h.stage1();
  const auto st2 = h.stage2(st1.end_point);
  Stage4Config c4;
  c4.scheme = paper();
  c4.max_partition_size = 16;
  c4.orthogonal = false;
  const auto full = run_stage4(h.pair.s0.bases(), h.pair.s1.bases(), st2.crosspoints, c4);
  c4.orthogonal = true;
  const auto orth = run_stage4(h.pair.s0.bases(), h.pair.s1.bases(), st2.crosspoints, c4);
  EXPECT_LT(orth.stats.cells, full.stats.cells);
}

TEST(Stage4, BalancedSplittingHandlesSkewedPartitions) {
  // A single wide partition: classic MM needs many row splits; balanced
  // splitting must converge in ~log iterations and a valid chain.
  StageHarness h(test::small_related(60, 600, 6300));
  const auto st1 = h.stage1();
  const auto st2 = h.stage2(st1.end_point);
  for (const bool balanced : {false, true}) {
    Stage4Config c4;
    c4.scheme = paper();
    c4.max_partition_size = 16;
    c4.balanced_splitting = balanced;
    const auto st4 = run_stage4(h.pair.s0.bases(), h.pair.s1.bases(), st2.crosspoints, c4);
    validate_chain_scores(st4.crosspoints, h.pair.s0.bases(), h.pair.s1.bases(), paper());
  }
}

TEST(Stage4, IterationLogIsMonotone) {
  StageHarness h(test::small_related(400, 380, 6400));
  const auto st1 = h.stage1();
  const auto st2 = h.stage2(st1.end_point);
  Stage4Config c4;
  c4.scheme = paper();
  c4.max_partition_size = 8;
  const auto st4 = run_stage4(h.pair.s0.bases(), h.pair.s1.bases(), st2.crosspoints, c4);
  for (std::size_t k = 1; k < st4.iterations.size(); ++k) {
    EXPECT_LE(st4.iterations[k].h_max, std::max(st4.iterations[k - 1].h_max,
                                                st4.iterations[k - 1].w_max));
    EXPECT_GE(st4.iterations[k].crosspoints, st4.iterations[k - 1].crosspoints);
  }
}

TEST(Stage5, FullAlignmentScoresTheBest) {
  StageHarness h(test::small_related(260, 240, 7000));
  const auto st1 = h.stage1();
  const auto st2 = h.stage2(st1.end_point);
  Stage4Config c4;
  c4.scheme = paper();
  c4.max_partition_size = 16;
  const auto st4 = run_stage4(h.pair.s0.bases(), h.pair.s1.bases(), st2.crosspoints, c4);
  Stage5Config c5;
  c5.scheme = paper();
  const auto st5 = run_stage5(h.pair.s0.bases(), h.pair.s1.bases(), st4.crosspoints, c5);
  EXPECT_EQ(st5.alignment.score, st1.end_point.score);
  EXPECT_EQ(st5.binary.score, st1.end_point.score);
}

TEST(Stage6, ReconstructionMatchesStage5) {
  StageHarness h(test::small_related(220, 220, 7100));
  const auto st1 = h.stage1();
  const auto st2 = h.stage2(st1.end_point);
  Stage4Config c4;
  c4.scheme = paper();
  const auto st4 = run_stage4(h.pair.s0.bases(), h.pair.s1.bases(), st2.crosspoints, c4);
  Stage5Config c5;
  c5.scheme = paper();
  const auto st5 = run_stage5(h.pair.s0.bases(), h.pair.s1.bases(), st4.crosspoints, c5);
  const auto st6 = run_stage6(h.pair.s0.bases(), h.pair.s1.bases(), st5.binary);
  EXPECT_EQ(st6.alignment.transcript, st5.alignment.transcript);
  EXPECT_EQ(st6.composition.total_score(), st5.alignment.score);
}

TEST(CrosspointChain, ValidatorCatchesBrokenChains) {
  CrosspointList chain{{0, 0, 0, dp::CellState::kH}, {10, 10, 5, dp::CellState::kH}};
  EXPECT_NO_THROW(validate_chain(chain, 10, 10, 5));
  // Non-monotone.
  CrosspointList bad = chain;
  bad.insert(bad.begin() + 1, Crosspoint{12, 4, 3, dp::CellState::kH});
  EXPECT_THROW(validate_chain(bad, 10, 10, 5), Error);
  // Wrong end score.
  EXPECT_THROW(validate_chain(chain, 10, 10, 6), Error);
  // E-type needs width.
  CrosspointList etype{{0, 0, 0, dp::CellState::kH},
                       {5, 0, 2, dp::CellState::kE},
                       {10, 10, 5, dp::CellState::kH}};
  EXPECT_THROW(validate_chain(etype, 10, 10, 5), Error);
}

}  // namespace
}  // namespace cudalign::core
