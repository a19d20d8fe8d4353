// The wavefront engine vs the single-sweep reference: identical DP values,
// special rows, last column and best cells for every grid shape and worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>

#include "check/bus_audit.hpp"
#include "common/rng.hpp"
#include "dp/linear.hpp"
#include "engine/executor.hpp"
#include "test_util.hpp"

namespace cudalign {
namespace {

using dp::AlignMode;
using dp::CellState;
using engine::BusCell;
using engine::GridSpec;
using engine::HookAction;
using engine::Hooks;
using engine::ProblemSpec;
using test::rand_seq;
using test::tiny_grid;

scoring::Scheme paper() { return scoring::Scheme::paper_defaults(); }

/// Worker counts every equivalence check runs the wavefront at: one
/// participant runs the tiles in a single order, four interleave them.
constexpr int kWorkerCounts[] = {1, 4};

// The CPU fit is B = clamp(width / min_chunk_cols, 1, blocks): the most
// chunks that keep each one at least min_chunk_cols wide, capped at blocks.
TEST(Grid, ChunksAreNeverNarrowerThanMinChunkCols) {
  for (const Index min_cols : {1, 16, 128, 1664}) {
    for (const Index cap : {1, 3, 60, 240}) {
      GridSpec g = tiny_grid(cap, 64, 4);
      g.min_chunk_cols = min_cols;
      const Index step = std::max<Index>(1, min_cols / 7);
      for (Index width = 0; width <= (cap + 2) * min_cols + 1; width += step) {
        SCOPED_TRACE("min_cols " + std::to_string(min_cols) + " cap " + std::to_string(cap) +
                     " width " + std::to_string(width));
        const GridSpec fit = engine::fit_to_width(g, width);
        ASSERT_GE(fit.blocks, 1);
        ASSERT_LE(fit.blocks, cap);
        // Chunk b spans (width*b/B, width*(b+1)/B], so the narrowest is
        // width/B wide; only a problem narrower than one chunk goes below.
        if (width >= min_cols) {
          EXPECT_GE(width / fit.blocks, min_cols);
        }
        // Maximal: one more chunk would be too narrow, unless B is capped.
        if (fit.blocks < cap) {
          EXPECT_LT(width / (fit.blocks + 1), min_cols);
        }
        EXPECT_EQ(fit.threads, g.threads);
        EXPECT_EQ(fit.alpha, g.alpha);
        EXPECT_EQ(fit.min_chunk_cols, min_cols);
      }
    }
  }
}

TEST(Grid, FitNeverReturnsZeroBlocks) {
  for (const Index min_cols : {1, 128, 1664}) {
    GridSpec g = tiny_grid(8, 64, 4);
    g.min_chunk_cols = min_cols;
    EXPECT_EQ(engine::fit_to_width(g, 1).blocks, 1);
    EXPECT_EQ(engine::fit_to_width(g, 0).blocks, 1);
  }
}

// The block count is a function of the width (and the spec's own cap and
// minimum chunk): not of the strip shape, and not of the pool that runs it,
// so tallies, pruning and special rows match on any worker count.
TEST(Grid, BlockCountDependsOnlyOnTheWidth) {
  for (const Index width : {0, 1, 100, 257, 1000, 5000}) {
    GridSpec g = tiny_grid(12, 4, 2);
    g.min_chunk_cols = 64;
    const Index blocks = engine::fit_to_width(g, width).blocks;
    for (const Index threads : {1, 4, 64, 512}) {
      for (const Index alpha : {1, 4}) {
        GridSpec h = g;
        h.threads = threads;
        h.alpha = alpha;
        EXPECT_EQ(engine::fit_to_width(h, width).blocks, blocks) << width;
      }
    }
  }
  const auto a = rand_seq(200, 65001);
  const auto b = rand_seq(1000, 65002);
  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = tiny_grid(40, 4, 2);
  spec.grid.min_chunk_cols = 64;
  spec.recurrence = engine::Recurrence::local(paper());
  for (const int workers : kWorkerCounts) {
    ThreadPool pool(workers);
    EXPECT_EQ(engine::run_wavefront(spec, Hooks{}, &pool).stats.blocks_used, 1000 / 64)
        << workers << " workers";
  }
}

// Stage 1's default grid: the paper's 240 blocks only once chunks reach
// 1664 columns, fewer (never narrower chunks) below that.
TEST(Grid, Stage1DefaultShapeAcrossSizes) {
  const GridSpec g = GridSpec::stage1_defaults();
  EXPECT_EQ(g.blocks, 240);
  EXPECT_EQ(g.strip_rows(), 256);
  EXPECT_EQ(g.min_chunk_cols, 1664);
  const std::pair<Index, Index> expected[] = {
      {5'000, 3}, {100'000, 60}, {110'000, 66}, {400'000, 240}, {1'000'000, 240}};
  for (const auto& [n, blocks] : expected) {
    EXPECT_EQ(engine::fit_to_width(g, n).blocks, blocks) << n;
  }
}

// ---------------------------------------------------------------------------
// Engine vs reference equivalence, parameterized over grid shapes, modes and
// sizes (the key substrate property: the wavefront decomposition with buses
// is exact).
// ---------------------------------------------------------------------------

struct EngineCase {
  Index m, n;
  Index blocks, threads, alpha;
  int mode;  // 0 local, 1 global-H, 2 global-E, 3 global-F.
  std::uint64_t seed;
};

class EngineEquivalence : public ::testing::TestWithParam<EngineCase> {};

struct Captured {
  std::map<Index, std::vector<BusCell>> special_rows;
  std::map<Index, std::vector<BusCell>> last_column;  ///< By first_row.
};

/// Runs the engine on a pool of `workers`, or the reference sweep when it is
/// empty, capturing its special rows and last column.
Captured run_with_hooks(const ProblemSpec& spec, Index interval, std::optional<int> workers,
                        dp::LocalBest* best_out) {
  Captured captured;
  Hooks hooks;
  hooks.special_row_interval = interval;
  if (interval > 0) {
    hooks.on_special_row = [&](Index row, std::span<const BusCell> cells, const dp::LocalBest&,
                               const engine::PruneState&) {
      captured.special_rows[row] = std::vector<BusCell>(cells.begin(), cells.end());
    };
  }
  hooks.on_tap = [&](Index first_row, std::span<const BusCell> cells) {
    captured.last_column[first_row] = std::vector<BusCell>(cells.begin(), cells.end());
    return HookAction::kContinue;
  };
  std::optional<ThreadPool> pool;
  if (workers) pool.emplace(*workers);
  const auto result =
      pool ? engine::run_wavefront(spec, hooks, &*pool) : engine::run_reference(spec, hooks);
  if (best_out) *best_out = result.best;
  return captured;
}

TEST_P(EngineEquivalence, MatchesReferenceSweep) {
  const auto p = GetParam();
  const auto a = rand_seq(p.m, p.seed);
  const auto b = rand_seq(p.n, p.seed ^ 0xf00d);

  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = tiny_grid(p.blocks, p.threads, p.alpha);
  const CellState start = p.mode == 2   ? CellState::kE
                          : p.mode == 3 ? CellState::kF
                                        : CellState::kH;
  spec.recurrence = p.mode == 0 ? engine::Recurrence::local(paper())
                                : engine::Recurrence::global_start(start, paper());

  // Interval 1: every strip boundary's row, interior columns included.
  const Index interval = 1;

  dp::LocalBest reference_best;
  const Captured reference_out = run_with_hooks(spec, interval, std::nullopt, &reference_best);
  for (const int workers : kWorkerCounts) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    dp::LocalBest engine_best;
    const Captured engine_out = run_with_hooks(spec, interval, workers, &engine_best);

    EXPECT_EQ(engine_best.score, reference_best.score);
    EXPECT_EQ(engine_best.i, reference_best.i);
    EXPECT_EQ(engine_best.j, reference_best.j);

    ASSERT_EQ(engine_out.special_rows.size(), reference_out.special_rows.size());
    for (const auto& [row, cells] : reference_out.special_rows) {
      ASSERT_TRUE(engine_out.special_rows.contains(row)) << "missing special row " << row;
      EXPECT_EQ(engine_out.special_rows.at(row), cells) << "special row " << row;
    }
    EXPECT_EQ(engine_out.last_column, reference_out.last_column);
  }
}

std::vector<EngineCase> engine_cases() {
  std::vector<EngineCase> cases;
  std::uint64_t seed = 11000;
  for (const auto& [blocks, threads, alpha] :
       {std::tuple<Index, Index, Index>{1, 2, 1}, {3, 2, 2}, {4, 4, 1}, {7, 2, 3}}) {
    for (int mode = 0; mode < 4; ++mode) {
      cases.push_back(EngineCase{37, 53, blocks, threads, alpha, mode, seed++});
      cases.push_back(EngineCase{24, 100, blocks, threads, alpha, mode, seed++});
    }
  }
  // Degenerate geometries.
  cases.push_back(EngineCase{1, 40, 4, 2, 2, 0, seed++});
  cases.push_back(EngineCase{40, 1, 4, 2, 2, 0, seed++});
  cases.push_back(EngineCase{5, 5, 8, 8, 4, 1, seed++});  // Grid larger than problem.
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Shapes, EngineEquivalence, ::testing::ValuesIn(engine_cases()),
                         [](const ::testing::TestParamInfo<EngineCase>& tpi) {
                           const auto& p = tpi.param;
                           std::string name("m");
                           name += std::to_string(p.m);
                           name += "_n";
                           name += std::to_string(p.n);
                           name += "_B";
                           name += std::to_string(p.blocks);
                           name += "_T";
                           name += std::to_string(p.threads);
                           name += "_a";
                           name += std::to_string(p.alpha);
                           name += "_mode";
                           name += std::to_string(p.mode);
                           return name;
                         });

// Fuzz: random geometry, grids, modes and special-row intervals, engine (1
// and 4 workers) vs reference, at interval 1 (every strip boundary) too.
class EngineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineFuzz, RandomConfigurationMatchesReference) {
  Rng rng(GetParam());
  const Index m = 1 + static_cast<Index>(rng.below(120));
  const Index n = 1 + static_cast<Index>(rng.below(120));
  const auto a = rand_seq(m, rng.next());
  const auto b = rand_seq(n, rng.next());

  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = tiny_grid(1 + static_cast<Index>(rng.below(8)), 1 + static_cast<Index>(rng.below(6)),
                        1 + static_cast<Index>(rng.below(4)));
  const int mode = static_cast<int>(rng.below(4));
  const CellState start = mode == 2 ? CellState::kE : mode == 3 ? CellState::kF : CellState::kH;
  spec.recurrence = mode == 0 ? engine::Recurrence::local(paper())
                              : engine::Recurrence::global_start(start, paper());

  const Index drawn = 1 + static_cast<Index>(rng.below(4));
  for (const Index interval : {Index{1}, drawn}) {
    dp::LocalBest rb;
    const Captured reference_out = run_with_hooks(spec, interval, std::nullopt, &rb);
    for (const int workers : kWorkerCounts) {
      SCOPED_TRACE("interval " + std::to_string(interval) + ", workers " +
                   std::to_string(workers));
      dp::LocalBest eb;
      const Captured engine_out = run_with_hooks(spec, interval, workers, &eb);
      EXPECT_EQ(eb.score, rb.score);
      EXPECT_EQ(eb.i, rb.i);
      EXPECT_EQ(eb.j, rb.j);
      EXPECT_EQ(engine_out.special_rows, reference_out.special_rows);
      EXPECT_EQ(engine_out.last_column, reference_out.last_column);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz, ::testing::Range<std::uint64_t>(1, 33));

TEST(Engine, DeterministicAcrossWorkerCounts) {
  const auto a = rand_seq(120, 501);
  const auto b = rand_seq(130, 502);
  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = tiny_grid(5, 4, 2);
  spec.recurrence = engine::Recurrence::local(paper());

  ThreadPool one(1), four(4);
  Hooks hooks;
  const auto r1 = engine::run_wavefront(spec, hooks, &one);
  const auto r4 = engine::run_wavefront(spec, hooks, &four);
  EXPECT_EQ(r1.best.score, r4.best.score);
  EXPECT_EQ(r1.best.i, r4.best.i);
  EXPECT_EQ(r1.best.j, r4.best.j);
  EXPECT_EQ(r1.stats.cells, r4.stats.cells);
}

TEST(Engine, LocalBestMatchesLinearReference) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const auto pair = seq::make_related_pair(150, 160, 600 + seed);
    ProblemSpec spec;
    spec.a = pair.s0.bases();
    spec.b = pair.s1.bases();
    spec.grid = tiny_grid(3, 8, 2);
    spec.recurrence = engine::Recurrence::local(paper());
    const auto run = engine::run_wavefront(spec, Hooks{});
    const auto expected = dp::linear_local_best(pair.s0.bases(), pair.s1.bases(), paper());
    EXPECT_EQ(run.best.score, expected.score);
    EXPECT_EQ(run.best.i, expected.i);
    EXPECT_EQ(run.best.j, expected.j);
  }
}

TEST(Engine, CellsCountIsExact) {
  const auto a = rand_seq(33, 701);
  const auto b = rand_seq(47, 702);
  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = tiny_grid(4, 2, 2);
  spec.recurrence = engine::Recurrence::local(paper());
  const auto run = engine::run_wavefront(spec, Hooks{});
  EXPECT_EQ(run.stats.cells, 33 * 47);
  EXPECT_FALSE(run.stopped_early);
}

TEST(Engine, FindValueProbeStopsEarly) {
  // Identical sequences: H == m at the last diagonal cell; probe for a small
  // value must stop long before the full matrix is processed.
  const auto a = rand_seq(200, 801);
  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = a.bases();
  spec.grid = tiny_grid(4, 4, 2);
  spec.recurrence = engine::Recurrence::local(paper());
  Hooks hooks;
  hooks.find_value = 10;
  const auto run = engine::run_wavefront(spec, hooks);
  ASSERT_TRUE(run.found);
  EXPECT_TRUE(run.stopped_early);
  EXPECT_LT(run.stats.cells, 200 * 200);
  // The found cell must actually have H == 10 (verify against the reference).
  const auto full = dp::compute_full(a.bases(), a.bases(), paper(), AlignMode::kLocal);
  EXPECT_EQ(full.at(run.found_i, run.found_j).h, 10);
}

TEST(Engine, TapStopEndsRun) {
  const auto a = rand_seq(100, 901);
  const auto b = rand_seq(100, 902);
  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = tiny_grid(2, 4, 2);
  spec.recurrence = engine::Recurrence::global_start(CellState::kH, paper());
  for (const int workers : kWorkerCounts) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    Hooks hooks;
    int calls = 0;
    hooks.on_tap = [&](Index first_row, std::span<const BusCell>) {
      ++calls;
      // Stop as soon as rows past 16 arrive.
      return first_row > 16 ? HookAction::kStop : HookAction::kContinue;
    };
    ThreadPool pool(workers);
    const auto run = engine::run_wavefront(spec, hooks, &pool);
    EXPECT_TRUE(run.stopped_early);
    // Row-0 boundary, then strips starting at rows 1, 9 and 17 (height 8):
    // the stop lands when the third strip retires.
    EXPECT_EQ(calls, 4);
    EXPECT_EQ(run.stats.strips, 3);
    EXPECT_EQ(run.stats.cells, 3 * 8 * 100);
  }
}

TEST(Engine, EmptyProblemDeliversBoundaryTaps) {
  const auto b = rand_seq(3, 1);
  ProblemSpec spec;
  spec.b = b.bases();  // a stays empty: a 0 x 3 problem.
  spec.grid = tiny_grid(2, 2, 2);
  spec.recurrence = engine::Recurrence::global_start(CellState::kH, paper());
  Hooks hooks;
  int calls = 0;
  hooks.on_tap = [&](Index first_row, std::span<const BusCell> cells) {
    ++calls;
    EXPECT_EQ(first_row, 0);
    EXPECT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].h, -(5 + 2 * 2));  // Gap run of length 3 on row 0.
    return HookAction::kContinue;
  };
  const auto run = engine::run_wavefront(spec, hooks);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(run.stats.cells, 0);
}

// The last column of an n = 0 problem is column 0, the left boundary: no
// tile publishes it, so on_tap is refused there.
TEST(Engine, TapColumnZeroRejected) {
  const auto a = rand_seq(4, 2);
  ProblemSpec spec;
  spec.a = a.bases();  // b stays empty: a 4 x 0 problem.
  spec.grid = tiny_grid(1, 1, 1);
  spec.recurrence = engine::Recurrence::global_start(CellState::kH, paper());
  Hooks hooks;
  hooks.on_tap = [](Index, std::span<const BusCell>) { return HookAction::kContinue; };
  EXPECT_THROW((void)engine::run_wavefront(spec, hooks), Error);
  EXPECT_THROW((void)engine::run_reference(spec, hooks), Error);
}

TEST(Engine, BusMemoryIsLinear) {
  const auto a = rand_seq(400, 1001);
  const auto b = rand_seq(400, 1002);
  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = tiny_grid(4, 4, 2);
  spec.recurrence = engine::Recurrence::local(paper());
  const auto run = engine::run_wavefront(spec, Hooks{});
  // Far below quadratic: buses are O(n + B*strip).
  EXPECT_LT(run.stats.bus_bytes, 100u * 1024u);
}

TEST(Engine, SpecialRowsNeedSink) {
  ProblemSpec spec;
  spec.recurrence = engine::Recurrence::local(paper());
  spec.grid = tiny_grid(1, 1, 1);
  Hooks hooks;
  hooks.special_row_interval = 2;
  EXPECT_THROW((void)engine::run_wavefront(spec, hooks), Error);
}

// ---------------------------------------------------------------------------
// Dataflow at one worker vs many. One participant runs the dependency graph in
// a single order; many interleave it. Everything observable — best cell, cell,
// tile, diagonal and prune counts, kernel tallies, bus traffic, every flushed
// special row byte — must be identical, with or without pruning, under any
// pinned kernel, and equal to the reference sweep where it has the hooks.
// ---------------------------------------------------------------------------

struct ExecRun {
  dp::LocalBest best;
  engine::RunStats stats;
  std::vector<std::pair<Index, std::vector<BusCell>>> flushes;
  std::vector<dp::LocalBest> flush_best;
  std::vector<engine::PruneState> flush_prune;
};

/// How the special-row hook gets the row out of the engine's buffer
/// (Hooks::on_special_row): a copy; a move that leaves the buffer moved-from;
/// a swap that leaves an empty buffer; a swap that leaves a short one of
/// stale cells, as a recycled buffer would be.
enum class Handoff : std::uint8_t { kCopy, kTake, kSwapEmpty, kSwapStale };

/// Runs the wavefront on a pool of `workers`, or the reference sweep when it
/// is empty, flushing a special row every `interval` strips.
ExecRun run_with_workers(const ProblemSpec& spec, std::optional<int> workers, Index interval,
                         Handoff handoff = Handoff::kCopy) {
  ExecRun out;
  Hooks hooks;
  hooks.special_row_interval = interval;
  hooks.on_special_row = [&](Index row, std::vector<BusCell>& cells, const dp::LocalBest& best,
                             const engine::PruneState& prune) {
    std::vector<BusCell> taken;
    switch (handoff) {
      case Handoff::kCopy: taken = cells; break;
      case Handoff::kTake: taken = std::move(cells); break;
      case Handoff::kSwapEmpty: taken.swap(cells); break;
      case Handoff::kSwapStale:
        taken.swap(cells);
        cells.assign(taken.size() / 2, BusCell{-7, -7});
        break;
    }
    out.flushes.emplace_back(row, std::move(taken));
    out.flush_best.push_back(best);
    out.flush_prune.push_back(prune);
  };
  std::optional<ThreadPool> pool;
  if (workers) pool.emplace(*workers);
  const auto run =
      pool ? engine::run_wavefront(spec, hooks, &*pool) : engine::run_reference(spec, hooks);
  out.best = run.best;
  out.stats = run.stats;
  return out;
}

void expect_same_run(const ExecRun& want, const ExecRun& got, const std::string& label) {
  EXPECT_EQ(got.best.score, want.best.score) << label;
  EXPECT_EQ(got.best.i, want.best.i) << label;
  EXPECT_EQ(got.best.j, want.best.j) << label;
  EXPECT_EQ(got.stats.cells, want.stats.cells) << label;
  EXPECT_EQ(got.stats.pruned_cells, want.stats.pruned_cells) << label;
  EXPECT_EQ(got.stats.pruned_tiles, want.stats.pruned_tiles) << label;
  ASSERT_EQ(got.flushes.size(), want.flushes.size()) << label;
  for (std::size_t k = 0; k < want.flushes.size(); ++k) {
    EXPECT_EQ(got.flushes[k].first, want.flushes[k].first) << label;
    ASSERT_EQ(got.flushes[k].second.size(), want.flushes[k].second.size()) << label;
    EXPECT_EQ(std::memcmp(got.flushes[k].second.data(), want.flushes[k].second.data(),
                          want.flushes[k].second.size() * sizeof(BusCell)),
              0)
        << label << " flushed row " << want.flushes[k].first << " diverged";
  }
  ASSERT_EQ(got.flush_best.size(), want.flush_best.size()) << label;
  for (std::size_t k = 0; k < want.flush_best.size(); ++k) {
    EXPECT_EQ(got.flush_best[k].score, want.flush_best[k].score) << label;
    EXPECT_EQ(got.flush_best[k].i, want.flush_best[k].i) << label;
    EXPECT_EQ(got.flush_best[k].j, want.flush_best[k].j) << label;
  }
  EXPECT_EQ(got.flush_prune, want.flush_prune) << label;
}

/// expect_same_run plus the wavefront's own counters, which the reference
/// sweep does not keep: two wavefront runs of one spec must also agree on
/// the whole tally and the strip count (bus_bytes and the scheduler counters
/// aside, which depend on the worker count).
void expect_same_wavefront_run(const ExecRun& want, const ExecRun& got, const std::string& label) {
  expect_same_run(want, got, label);
  EXPECT_EQ(static_cast<const engine::Tally&>(got.stats),
            static_cast<const engine::Tally&>(want.stats))
      << label;
  EXPECT_EQ(got.stats.strips, want.stats.strips) << label;
}

TEST(DataflowEquivalence, OneWorkerMatchesManyAcrossShapesPruningAndKernels) {
  std::uint64_t seed = 61000;
  for (const auto& [blocks, threads, alpha] :
       {std::tuple<Index, Index, Index>{1, 2, 1}, {3, 2, 2}, {4, 4, 1}, {7, 2, 3}}) {
    const auto pair = seq::make_related_pair(230, 240, seed++);
    ProblemSpec spec;
    spec.a = pair.s0.bases();
    spec.b = pair.s1.bases();
    spec.grid = tiny_grid(blocks, threads, alpha);
    spec.recurrence = engine::Recurrence::local(paper());
    for (const bool prune : {false, true}) {
      spec.block_pruning = prune;
      for (const char* kernel : {"", "legacy"}) {
        const test::ScopedKernelPin pin(kernel);
        const std::string shape = "B=" + std::to_string(blocks) +
                                  " T=" + std::to_string(threads) + " a=" + std::to_string(alpha) +
                                  " prune=" + (prune ? "1" : "0") +
                                  " kernel=" + (kernel[0] ? kernel : "auto");
        const ExecRun one = run_with_workers(spec, 1, 2);
        // Pruned tiles publish lower bounds, so only unpruned rows are exact.
        if (!prune) expect_same_run(run_with_workers(spec, std::nullopt, 2), one, shape + " ref");
        for (const int workers : {2, 4}) {
          expect_same_wavefront_run(one, run_with_workers(spec, workers, 2),
                                    shape + " workers=" + std::to_string(workers));
        }
      }
    }
  }
}

// A hook that takes the engine's row buffer on every flush, whatever it
// leaves behind, receives exactly the rows a copying hook does: the
// reference sweep's when nothing is pruned, and (pruned tiles publish lower
// bounds) a copying wavefront run's when pruning. The reference sweep hands
// over its row the same way.
void expect_handoff_receives_copied_rows(Handoff handoff) {
  const auto pair = seq::make_related_pair(230, 240, 61100);
  ProblemSpec spec;
  spec.a = pair.s0.bases();
  spec.b = pair.s1.bases();
  spec.grid = tiny_grid(3, 2, 2);
  spec.recurrence = engine::Recurrence::local(paper());
  for (const bool prune : {false, true}) {
    spec.block_pruning = prune;
    for (const Index interval : {1, 3}) {
      const std::string label = std::string("prune=") + (prune ? "1" : "0") +
                                " interval=" + std::to_string(interval);
      const ExecRun want = prune ? run_with_workers(spec, 1, interval)
                                 : run_with_workers(spec, std::nullopt, interval);
      ASSERT_GE(want.flushes.size(), 4u) << label;
      if (!prune) {
        expect_same_run(want, run_with_workers(spec, std::nullopt, interval, handoff),
                        label + " ref");
      }
      for (const int workers : kWorkerCounts) {
        expect_same_run(want, run_with_workers(spec, workers, interval, handoff),
                        label + " workers=" + std::to_string(workers));
      }
    }
  }
}

TEST(DataflowEquivalence, HookThatMovesTheRowBufferOutReceivesTheSameRows) {
  expect_handoff_receives_copied_rows(Handoff::kTake);
}

TEST(DataflowEquivalence, HookThatSwapsInAnEmptyOrStaleBufferReceivesTheSameRows) {
  expect_handoff_receives_copied_rows(Handoff::kSwapEmpty);
  expect_handoff_receives_copied_rows(Handoff::kSwapStale);
}

TEST(DataflowEquivalence, StealHeavyGridMatchesOneWorker) {
  // Many tiny tiles (200 strips x 8 chunks of height 2) with more workers
  // than chunks: maximizes cross-participant hand-offs, parking and waits on
  // an empty ready queue. Primarily a ThreadSanitizer target — the CI TSan
  // lane runs the full suite.
  const auto pair = seq::make_related_pair(400, 420, 8801);
  ProblemSpec spec;
  spec.a = pair.s0.bases();
  spec.b = pair.s1.bases();
  spec.grid = tiny_grid(8, 2, 1);
  spec.recurrence = engine::Recurrence::local(paper());
  spec.block_pruning = true;
  // Called from inside a pool iteration, the one-worker run has a lone
  // participant, which makes every tile ready itself and never waits.
  std::optional<ExecRun> lone;
  ThreadPool host(1);
  host.parallel_for(2, [&](std::size_t i) {
    if (i == 0) lone = run_with_workers(spec, 1, 4);
  });
  const ExecRun one = *lone;
  const ExecRun many = run_with_workers(spec, 8, 4);
  expect_same_wavefront_run(one, many, "steal-heavy");
  expect_same_wavefront_run(one, run_with_workers(spec, 1, 4), "one worker, two participants");
  EXPECT_EQ(one.stats.tiles_stolen, 0);
  EXPECT_EQ(one.stats.starvation_waits, 0);
}

TEST(DataflowEquivalence, EightWorkersRunIntoTheWindowClampAndMatchOneWorker) {
  // 8 workers and the caller would allow 2 * 9 = 18 strips in flight; the
  // window is clamped to kPruneLag - 1 so the lagged best a strip reads has
  // always retired. 96 strips of height 4 put most of them past the lag.
  const auto pair = seq::make_related_pair(384, 300, 9107);
  ProblemSpec spec;
  spec.a = pair.s0.bases();
  spec.b = pair.s1.bases();
  spec.grid = tiny_grid(5, 4, 1);
  spec.recurrence = engine::Recurrence::local(paper());
  spec.block_pruning = true;
  const ExecRun one = run_with_workers(spec, 1, 3);
  const ExecRun eight = run_with_workers(spec, 8, 3);
  expect_same_wavefront_run(one, eight, "1 vs 8 workers");
  ASSERT_GT(one.stats.strips, 2 * engine::kPruneLag);
  EXPECT_GT(one.stats.pruned_tiles, 0) << "case no longer exercises pruning";
  // The ring, and with it the bus memory, follows the clamped window: 12
  // workers get the same one as 8.
  EXPECT_EQ(run_with_workers(spec, 12, 3).stats.bus_bytes, eight.stats.bus_bytes);
  EXPECT_LT(run_with_workers(spec, 4, 3).stats.bus_bytes, eight.stats.bus_bytes);
}

TEST(DataflowEquivalence, DegenerateGeometries) {
  for (const auto& [m, n] : {std::pair<Index, Index>{1, 40}, {40, 1}, {5, 5}, {1, 1}}) {
    const auto a = rand_seq(m, 62001);
    const auto b = rand_seq(n, 62002);
    ProblemSpec spec;
    spec.a = a.bases();
    spec.b = b.bases();
    spec.grid = tiny_grid(8, 8, 4);  // Grid larger than the problem.
    spec.recurrence = engine::Recurrence::local(paper());
    const std::string label = "m=" + std::to_string(m) + " n=" + std::to_string(n);
    const ExecRun one = run_with_workers(spec, 1, 1);
    expect_same_run(run_with_workers(spec, std::nullopt, 1), one, label + " ref");
    expect_same_wavefront_run(one, run_with_workers(spec, 4, 1), label);
  }
}

/// The pruned cells and tiles of the strips flushed at `run.flushes[0..k]`,
/// which must be every strip up to the k-th (flush interval 1). A pruned tile
/// publishes F = -inf across its horizontal segment, which no computed
/// local-mode cell does, so each flushed row shows which tiles of its strip
/// were pruned. Local mode peels no column, so chunk b spans vertex columns
/// (n * b / blocks, n * (b + 1) / blocks].
std::pair<WideScore, Index> pruned_through(const ExecRun& run, std::size_t k, Index strip_rows) {
  WideScore cells = 0;
  Index tiles = 0;
  const Index blocks = run.stats.blocks_used;
  for (std::size_t f = 0; f <= k; ++f) {
    const std::vector<BusCell>& row = run.flushes[f].second;
    const Index n = static_cast<Index>(row.size()) - 1;
    for (Index b = 0; b < blocks; ++b) {
      const Index c0 = n * b / blocks;
      const Index c1 = n * (b + 1) / blocks;
      if (row[static_cast<std::size_t>(c0 + 1)].gap == kNegInf) {
        cells += static_cast<WideScore>(strip_rows) * (c1 - c0);
        ++tiles;
      }
    }
  }
  return {cells, tiles};
}

// Pruned resume at a random flushed row: a run restarted there from what the
// flush delivered (row, best, pruning state), on 1 and 4 workers, must flush
// the same later rows and pruning states, find the same best, and prune the
// same cells and tiles as the uninterrupted run does after that row. Both
// runs prune with one seeded floor drawn from {0, best, uniform in [0, best]}.
TEST_P(EngineFuzz, PrunedResumeAtRandomFlushMatchesUninterrupted) {
  Rng rng(GetParam() * 104729);
  const Index m = 150 + static_cast<Index>(rng.below(250));
  const Index n = 60 + static_cast<Index>(rng.below(240));
  const auto pair = seq::make_related_pair(m, n, rng.next());
  ProblemSpec spec;
  spec.a = pair.s0.bases();
  spec.b = pair.s1.bases();
  spec.grid = tiny_grid(2 + static_cast<Index>(rng.below(6)), 1 + static_cast<Index>(rng.below(4)),
                        1 + static_cast<Index>(rng.below(2)));
  spec.recurrence = engine::Recurrence::local(paper());
  spec.block_pruning = true;
  const Score best = run_with_workers(spec, 1, 1).best.score;
  const std::uint64_t draw = rng.below(3);
  const auto uniform = static_cast<Score>(rng.below(static_cast<std::uint64_t>(best) + 1));
  spec.prune_floor = draw == 0 ? 0 : draw == 1 ? best : uniform;
  const ExecRun whole = run_with_workers(spec, 1, 1);
  ASSERT_EQ(whole.best.score, best) << "floor " << spec.prune_floor;
  ASSERT_FALSE(whole.flushes.empty());
  EXPECT_GT(whole.stats.pruned_tiles, 0) << "case no longer exercises pruning";

  const std::size_t k = rng.below(whole.flushes.size());
  ProblemSpec resumed = spec;
  resumed.start_row = whole.flushes[k].first;
  resumed.initial_hbus = whole.flushes[k].second;
  resumed.initial_best = whole.flush_best[k];
  resumed.initial_prune = whole.flush_prune[k];
  ASSERT_EQ(whole.flush_prune[k].lagged.size(), static_cast<std::size_t>(engine::kPruneLag));
  const auto [cells_before, tiles_before] = pruned_through(whole, k, spec.grid.strip_rows());

  ExecRun want;
  want.best = whole.best;
  want.stats.pruned_cells = whole.stats.pruned_cells - cells_before;
  want.stats.pruned_tiles = whole.stats.pruned_tiles - tiles_before;
  want.stats.cells = static_cast<WideScore>(m - resumed.start_row) * n - want.stats.pruned_cells;
  const auto after = static_cast<std::ptrdiff_t>(k + 1);
  want.flushes.assign(whole.flushes.begin() + after, whole.flushes.end());
  want.flush_best.assign(whole.flush_best.begin() + after, whole.flush_best.end());
  want.flush_prune.assign(whole.flush_prune.begin() + after, whole.flush_prune.end());
  for (const int workers : kWorkerCounts) {
    expect_same_run(want, run_with_workers(resumed, workers, 1),
                    "resume at row " + std::to_string(resumed.start_row) + ", workers " +
                        std::to_string(workers));
  }
}

TEST(DataflowProgress, PerTileFractionIsMonotoneAndComplete) {
  const auto a = rand_seq(200, 63001);
  const auto b = rand_seq(210, 63002);
  for (const int workers : kWorkerCounts) {
    ProblemSpec spec;
    spec.a = a.bases();
    spec.b = b.bases();
    spec.grid = tiny_grid(4, 4, 2);
    spec.recurrence = engine::Recurrence::local(paper());
    Hooks hooks;
    Index last_done = 0, last_total = 0;
    int calls = 0;
    hooks.on_progress = [&](Index done, Index total) {
      EXPECT_GE(done, last_done) << "progress went backwards";
      EXPECT_LE(done, total);
      last_done = done;
      last_total = total;
      ++calls;
    };
    ThreadPool pool(workers);
    (void)engine::run_wavefront(spec, hooks, &pool);
    EXPECT_GT(calls, 1) << "workers " << workers;
    EXPECT_EQ(last_done, last_total) << "workers " << workers;
    EXPECT_GT(last_total, 0) << "workers " << workers;
  }
}

// The probe reports the row-major-first cell with H == value at any worker
// count, whatever order the tiles ran in: the first retired strip with a hit
// reports the smallest (i, j) among its tiles' hits.
TEST(Dataflow, ProbeReportsRowMajorFirstHitAtAnyWorkerCount) {
  // Unrelated sequences scatter small H values over many tiles, so the first
  // hit by external diagonal is usually not the row-major-first one.
  const auto a = rand_seq(120, 64001);
  const auto b = rand_seq(130, 64002);
  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = tiny_grid(6, 2, 2);  // Strip height 4, six chunks.
  spec.recurrence = engine::Recurrence::local(paper());
  const auto full = dp::compute_full(spec.a, spec.b, paper(), AlignMode::kLocal);
  for (const Score value : {3, 4, 5, 6}) {
    std::optional<std::pair<Index, Index>> want;
    for (Index i = 1; i <= full.m() && !want; ++i) {
      for (Index j = 1; j <= full.n() && !want; ++j) {
        if (full.at(i, j).h == value) want = std::pair{i, j};
      }
    }
    ASSERT_TRUE(want) << "no cell with H == " << value;
    for (const int workers : kWorkerCounts) {
      const std::string label =
          "value " + std::to_string(value) + " workers " + std::to_string(workers);
      Hooks hooks;
      hooks.find_value = value;
      ThreadPool pool(workers);
      const auto run = engine::run_wavefront(spec, hooks, &pool);
      EXPECT_TRUE(run.found) << label;
      EXPECT_TRUE(run.stopped_early) << label;
      EXPECT_EQ(std::pair(run.found_i, run.found_j), *want) << label;
    }
  }
}

TEST(Dataflow, BusPlanesMatchTheStripsThatExist) {
  // With fewer strips than window + 2 (window = 8 on a 4-worker pool), a
  // dataflow run keeps one strip slot per strip: the horizontal bus (n + 1
  // cells) plus two vertical-bus buffers of strip_rows + 1 cells per slot.
  const auto b = rand_seq(200, 65002);
  for (const Index m : {8, 20}) {  // 1 and 3 strips of 8 rows.
    const auto a = rand_seq(m, 65001);
    ProblemSpec spec;
    spec.a = a.bases();
    spec.b = b.bases();
    spec.grid = tiny_grid(4, 4, 2);
    spec.recurrence = engine::Recurrence::local(paper());
    ThreadPool pool(4);
    const auto run = engine::run_wavefront(spec, Hooks{}, &pool);
    const auto strips = static_cast<std::size_t>(run.stats.strips);
    ASSERT_EQ(strips, static_cast<std::size_t>((m + 7) / 8));
    EXPECT_EQ(run.stats.bus_bytes, (201 + 2 * strips * 9) * sizeof(BusCell)) << "m=" << m;
  }
}

TEST(Engine, VerticalBusDoesNotGrowWithBlocks) {
  // The vertical bus is two buffers of strip_rows + 1 cells per strip slot,
  // whatever the chunk count. The ring holds min(strips, window + 2) slots
  // (window = 2 * 3 participants = 6 on a 2-worker pool); special rows
  // (interval 4) add (ring - 1) / 4 + 1 buffers of n + 1 cells. So 4 and 16
  // chunks cost the same bus memory on 3 strips and on 40.
  const auto b = rand_seq(200, 66002);
  const std::size_t n1 = 201, vbus_len = 9;
  for (const Index m : {24, 320}) {  // 3 and 40 strips of 8 rows.
    const auto a = rand_seq(m, 66001);
    std::vector<std::size_t> bytes;
    for (const Index blocks : {4, 16}) {
      const std::string label = "m " + std::to_string(m) + " blocks " + std::to_string(blocks);
      ProblemSpec spec;
      spec.a = a.bases();
      spec.b = b.bases();
      spec.grid = tiny_grid(blocks, 4, 2);
      spec.recurrence = engine::Recurrence::local(paper());
      Hooks hooks;
      hooks.special_row_interval = 4;
      hooks.on_special_row = [](Index, std::span<const BusCell>, const dp::LocalBest&,
                                const engine::PruneState&) {};
      ThreadPool pool(2);
      const auto run = engine::run_wavefront(spec, hooks, &pool);
      ASSERT_EQ(run.stats.strips, m / 8) << label;
      ASSERT_EQ(run.stats.blocks_used, blocks) << label;
      const auto ring = static_cast<std::size_t>(std::min<Index>(m / 8, 8));
      const std::size_t rows = (ring - 1) / 4 + 1;
      EXPECT_EQ(run.stats.bus_bytes, (n1 + 2 * ring * vbus_len + rows * n1) * sizeof(BusCell))
          << label;
      bytes.push_back(run.stats.bus_bytes);
    }
    EXPECT_EQ(bytes[0], bytes[1]) << "m " << m;
  }
}

// The checkpoint/resume contract at the engine layer: restarting from a
// flushed special row (start_row + initial_hbus + initial_best) must replay
// the remaining strips exactly — same flushed rows byte for byte, same
// merged best. The pipeline's crash-recovery correctness reduces to this.
TEST(Engine, ResumeFromSpecialRowMatchesFullRun) {
  const auto a = rand_seq(250, 2201);
  const auto b = rand_seq(240, 2202);
  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = tiny_grid(3, 8, 2);  // Strip height 16.
  spec.recurrence = engine::Recurrence::local(paper());

  struct Flush {
    Index row;
    std::vector<BusCell> bus;
    dp::LocalBest best;
  };
  const auto collect = [&](ProblemSpec run_spec) {
    std::vector<Flush> flushes;
    Hooks hooks;
    hooks.special_row_interval = 2;  // Every 32 rows.
    hooks.on_special_row = [&](Index row, std::span<const BusCell> bus,
                               const dp::LocalBest& best, const engine::PruneState&) {
      flushes.push_back({row, {bus.begin(), bus.end()}, best});
    };
    const auto run = engine::run_wavefront(run_spec, hooks);
    return std::pair{flushes, run.best};
  };

  const auto [full_flushes, full_best] = collect(spec);
  ASSERT_GE(full_flushes.size(), 3u);

  const Flush& middle = full_flushes[1];
  ProblemSpec resumed_spec = spec;
  resumed_spec.start_row = middle.row;
  resumed_spec.initial_hbus = middle.bus;
  resumed_spec.initial_best = middle.best;
  const auto [resumed_flushes, resumed_best] = collect(resumed_spec);

  EXPECT_EQ(resumed_best.score, full_best.score);
  EXPECT_EQ(resumed_best.i, full_best.i);
  EXPECT_EQ(resumed_best.j, full_best.j);
  ASSERT_EQ(resumed_flushes.size(), full_flushes.size() - 2);
  for (std::size_t k = 0; k < resumed_flushes.size(); ++k) {
    const Flush& want = full_flushes[k + 2];
    const Flush& got = resumed_flushes[k];
    EXPECT_EQ(got.row, want.row);
    ASSERT_EQ(got.bus.size(), want.bus.size());
    EXPECT_EQ(std::memcmp(got.bus.data(), want.bus.data(), got.bus.size() * sizeof(BusCell)), 0)
        << "flushed row " << got.row << " diverged after resume";
    EXPECT_EQ(got.best.score, want.best.score);
    EXPECT_EQ(got.best.i, want.best.i);
    EXPECT_EQ(got.best.j, want.best.j);
  }
}

// Same contract across executors: the full run is the reference sweep, and a
// resume from one of its special rows on the wavefront, at one worker or
// many, must flush the rest of its rows byte for byte.
TEST(Engine, DataflowResumeFromSpecialRowMatchesFullRunAcrossExecutors) {
  const auto a = rand_seq(250, 2301);
  const auto b = rand_seq(240, 2302);
  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = tiny_grid(3, 8, 2);  // Strip height 16.
  spec.recurrence = engine::Recurrence::local(paper());

  const ExecRun full = run_with_workers(spec, std::nullopt, 2);  // Every 32 rows.
  ASSERT_GE(full.flushes.size(), 3u);
  const auto& [middle_row, middle_bus] = full.flushes[1];
  ProblemSpec resumed_spec = spec;
  resumed_spec.start_row = middle_row;
  resumed_spec.initial_hbus = middle_bus;
  resumed_spec.initial_best = full.flush_best[1];

  for (const int workers : kWorkerCounts) {
    const std::string label = "workers " + std::to_string(workers);
    expect_same_run(full, run_with_workers(spec, workers, 2), "full run, " + label);
    const ExecRun resumed = run_with_workers(resumed_spec, workers, 2);
    EXPECT_EQ(resumed.best.score, full.best.score) << label;
    EXPECT_EQ(resumed.best.i, full.best.i) << label;
    EXPECT_EQ(resumed.best.j, full.best.j) << label;
    ASSERT_EQ(resumed.flushes.size(), full.flushes.size() - 2) << label;
    for (std::size_t k = 0; k < resumed.flushes.size(); ++k) {
      EXPECT_EQ(resumed.flushes[k].first, full.flushes[k + 2].first) << label;
      ASSERT_EQ(resumed.flushes[k].second.size(), full.flushes[k + 2].second.size()) << label;
      EXPECT_EQ(std::memcmp(resumed.flushes[k].second.data(), full.flushes[k + 2].second.data(),
                            resumed.flushes[k].second.size() * sizeof(BusCell)),
                0)
          << label << " flushed row " << resumed.flushes[k].first << " diverged after resume";
    }
  }
}

// ---------------------------------------------------------------------------
// Sentinel boundaries: an end-in-E sweep starts from H = -inf on column 0, an
// end-in-F sweep on row 0 (dp::end_corner). The executor peels that line off
// — column 0 as its own chunk, row 1 of each strip-0 tile as its own kernel
// call — so the rest of the problem runs on striped32-global, exactly.
// ---------------------------------------------------------------------------

/// Equal, or both unreachable: sweeps may carry different sentinel values.
bool same_or_both_unreachable(const std::vector<BusCell>& x, const std::vector<BusCell>& y) {
  const auto eq = [](Score u, Score v) { return u == v || (is_neg_inf(u) && is_neg_inf(v)); };
  return x.size() == y.size() && std::equal(x.begin(), x.end(), y.begin(), [&](auto& p, auto& q) {
           return eq(p.h, q.h) && eq(p.gap, q.gap);
         });
}

WideScore striped_cells(const engine::RunStats& stats) {
  return stats.kernels[static_cast<std::size_t>(engine::KernelId::kStriped32Global)].cells;
}

TEST(EngineSentinel, PeeledSweepsMatchReferenceOnStripedTiles) {
  const auto a = rand_seq(128, 7100);
  const auto b = rand_seq(140, 7101);
  const Index n = 140;
  for (const CellState end : {CellState::kE, CellState::kF}) {
    ProblemSpec spec;
    spec.a = a.bases();
    spec.b = b.bases();
    spec.recurrence = engine::Recurrence::global_end(end, paper());
    // Row 1 of the problem, for the probe: any of its values is first met,
    // in row-major order, at the smallest column holding it on row 1.
    std::vector<Score> row1;
    (void)dp::sweep_rows_from(spec.a, spec.b, paper(), spec.recurrence.corner,
                              [&](const dp::RowView& row) {
                                if (row.i == 1) row1.assign(row.h.begin(), row.h.end());
                              });
    const Index probe_col = n / 2;
    const Score target = row1[static_cast<std::size_t>(probe_col)];
    ASSERT_FALSE(is_neg_inf(target));
    const Index want_j = static_cast<Index>(
        std::find(row1.begin() + 1, row1.end(), target) - row1.begin());
    for (const Index blocks : {1, 4}) {
      spec.grid = tiny_grid(blocks, 16, 2);  // Strips of 32 rows.
      const Captured reference = run_with_hooks(spec, 1, std::nullopt, nullptr);
      for (const int workers : kWorkerCounts) {
        const std::string label = std::string("end") + std::to_string(static_cast<int>(end)) +
                                  " B=" + std::to_string(blocks) +
                                  " workers " + std::to_string(workers);
        ThreadPool pool(workers);
        check::BusAuditor auditor;
        Captured got;
        Hooks hooks;
        hooks.bus_audit = &auditor;
        hooks.special_row_interval = 1;
        hooks.on_special_row = [&](Index row, std::span<const BusCell> cells,
                                   const dp::LocalBest&, const engine::PruneState&) {
          got.special_rows[row] = std::vector<BusCell>(cells.begin(), cells.end());
        };
        hooks.on_tap = [&](Index first_row, std::span<const BusCell> cells) {
          got.last_column[first_row] = std::vector<BusCell>(cells.begin(), cells.end());
          return HookAction::kContinue;
        };
        const auto run = engine::run_wavefront(spec, hooks, &pool);
        EXPECT_TRUE(auditor.ok()) << label << "\n" << auditor.report();
        EXPECT_GE(striped_cells(run.stats) * 100, run.stats.cells * 95)
            << label << ": " << engine::kernel_usage_summary(run.stats.kernels);
        WideScore kernel_cells = 0;
        Index kernel_tiles = 0;
        for (const auto& tally : run.stats.kernels) {
          kernel_cells += tally.cells;
          kernel_tiles += tally.tiles;
        }
        EXPECT_EQ(kernel_cells, run.stats.cells) << label;
        EXPECT_EQ(kernel_tiles, run.stats.tiles) << label;
        ASSERT_EQ(got.special_rows.size(), reference.special_rows.size()) << label;
        for (const auto& [row, cells] : reference.special_rows) {
          EXPECT_TRUE(same_or_both_unreachable(got.special_rows[row], cells))
              << label << " special row " << row;
        }
        ASSERT_EQ(got.last_column.size(), reference.last_column.size()) << label;
        for (const auto& [first_row, cells] : reference.last_column) {
          EXPECT_TRUE(same_or_both_unreachable(got.last_column[first_row], cells))
              << label << " last column from row " << first_row;
        }

        Hooks probe;
        probe.bus_audit = &auditor;
        probe.find_value = target;
        const auto hit = engine::run_wavefront(spec, probe, &pool);
        EXPECT_TRUE(auditor.ok()) << label << " probe\n" << auditor.report();
        EXPECT_TRUE(hit.found) << label;
        EXPECT_EQ(std::pair(hit.found_i, hit.found_j), std::pair(Index{1}, want_j)) << label;
      }
    }
  }
}

// blocks_used reports the fitted B: a peeled sentinel column 0 runs as its
// own one-wide chunk but is not one of the grid's blocks.
TEST(EngineSentinel, PeeledColumnIsNotCountedAsABlock) {
  const auto a = rand_seq(40, 7102);
  const auto b = rand_seq(50, 7103);
  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  for (const Index blocks : {1, 3}) {
    spec.grid = tiny_grid(blocks, 4, 2);
    for (const CellState end : {CellState::kH, CellState::kE}) {
      spec.recurrence = engine::Recurrence::global_end(end, paper());
      const auto run = engine::run_wavefront(spec, Hooks{});
      EXPECT_EQ(run.stats.blocks_used, blocks) << "end " << static_cast<int>(end);
    }
  }
}

// ---------------------------------------------------------------------------
// The last-column hand-off: on_tap reads the last tile's outgoing vertical
// bus in place, with no copy. Checked against run_reference's column n for
// every corner seed (end types E and F make the executor peel column 0 and
// row 0) on 50 strips, far more than the ring holds at any worker count, so
// each buffer is reused while later strips compute.
// ---------------------------------------------------------------------------

/// x is at most y, a sentinel counting as the lowest value.
bool at_most(Score x, Score y) { return is_neg_inf(x) || (!is_neg_inf(y) && x <= y); }

TEST(EngineLastColumn, HookEntriesAreTheReferenceLastColumn) {
  const auto pair = test::small_related(200, 180, 7300);
  const auto m = static_cast<Index>(pair.s0.size());
  const auto n = static_cast<Index>(pair.s1.size());
  using Column = std::vector<BusCell>;
  const auto collect = [](Column& out) {
    return [&out](Index first_row, std::span<const BusCell> cells) {
      EXPECT_EQ(first_row, static_cast<Index>(out.size()));
      out.insert(out.end(), cells.begin(), cells.end());
      return HookAction::kContinue;
    };
  };
  for (const bool start : {true, false}) {
    for (const CellState state : {CellState::kH, CellState::kE, CellState::kF}) {
      ProblemSpec spec;
      spec.a = pair.s0.bases();
      spec.b = pair.s1.bases();
      spec.grid = tiny_grid(4, 2, 2);  // Strips of 4 rows.
      spec.recurrence = start ? engine::Recurrence::global_start(state, paper())
                              : engine::Recurrence::global_end(state, paper());
      Column reference;
      Hooks reference_hooks;
      reference_hooks.on_tap = collect(reference);
      (void)engine::run_reference(spec, reference_hooks);
      ASSERT_EQ(static_cast<Index>(reference.size()), m + 1);

      for (const bool prune : {false, true}) {
        if (prune) {
          // Goal pruning aimed at (m, n): entries elsewhere may only drop.
          spec.block_pruning = true;
          spec.goal = reference.back().h;
          spec.goal_reach = [&](Index r0, Index c0) {
            return WideScore{paper().match} * std::min(m - r0, n - c0);
          };
        }
        Column one_worker;
        for (const int workers : kWorkerCounts) {
          const std::string label = std::string(start ? "start" : "end") +
                                    std::to_string(static_cast<int>(state)) +
                                    (prune ? " pruned" : "") + " workers " +
                                    std::to_string(workers);
          ThreadPool pool(workers);
          Column got;
          Hooks hooks;
          hooks.on_tap = collect(got);
          const auto run = engine::run_wavefront(spec, hooks, &pool);
          ASSERT_GT(run.stats.strips, 12) << label;
          ASSERT_EQ(got.size(), reference.size()) << label;
          if (!prune) {
            EXPECT_TRUE(same_or_both_unreachable(got, reference)) << label;
            continue;
          }
          EXPECT_GT(run.stats.pruned_tiles, 0) << label;
          EXPECT_EQ(got.back(), reference.back()) << label;
          for (std::size_t r = 0; r < got.size(); ++r) {
            EXPECT_TRUE(at_most(got[r].h, reference[r].h)) << label << " row " << r;
            EXPECT_TRUE(at_most(got[r].gap, reference[r].gap)) << label << " row " << r;
          }
          if (one_worker.empty()) one_worker = got;
          EXPECT_EQ(got, one_worker) << label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace cudalign
