// The wavefront engine vs the single-sweep reference: identical DP values,
// special rows, taps and best cells for every grid shape, worker count and
// executor.
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

scoring::Scheme paper() { return scoring::Scheme::paper_defaults(); }

constexpr engine::ExecutorKind kExecutors[] = {engine::ExecutorKind::kLockstep,
                                               engine::ExecutorKind::kDataflow};

GridSpec tiny_grid(Index blocks, Index threads, Index alpha) {
  GridSpec g;
  g.blocks = blocks;
  g.threads = threads;
  g.alpha = alpha;
  g.multiprocessors = 1;
  return g;
}

TEST(Grid, MinimumSizeRequirementShrinksBlocks) {
  GridSpec g = tiny_grid(60, 128, 4);
  g.multiprocessors = 30;
  // width 1000 << 2*60*128: B must shrink to 1000/(2*128) = 3.
  const GridSpec fit = engine::fit_to_width(g, 1000);
  EXPECT_EQ(fit.blocks, 3);
  // Wide problems keep the full grid.
  EXPECT_EQ(engine::fit_to_width(g, 2 * 60 * 128).blocks, 60);
}

TEST(Grid, FitPrefersMultiprocessorMultiples) {
  GridSpec g = tiny_grid(240, 64, 4);
  g.multiprocessors = 30;
  // width 10000: B = 10000/128 = 78 -> rounded down to 60.
  EXPECT_EQ(engine::fit_to_width(g, 10000).blocks, 60);
}

TEST(Grid, FitNeverReturnsZeroBlocks) {
  GridSpec g = tiny_grid(8, 64, 4);
  EXPECT_EQ(engine::fit_to_width(g, 1).blocks, 1);
  EXPECT_EQ(engine::fit_to_width(g, 0).blocks, 1);
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
  std::map<std::pair<Index, Index>, std::vector<BusCell>> taps;  // (col, first_row).
};

/// Runs the engine under `executor`, or the reference sweep when it is empty.
Captured run_with_hooks(ProblemSpec spec, Index interval, std::vector<Index> taps,
                        std::optional<engine::ExecutorKind> executor, dp::LocalBest* best_out) {
  Captured captured;
  Hooks hooks;
  hooks.special_row_interval = interval;
  if (interval > 0) {
    hooks.on_special_row = [&](Index row, std::span<const BusCell> cells, const dp::LocalBest&) {
      captured.special_rows[row] = std::vector<BusCell>(cells.begin(), cells.end());
    };
  }
  hooks.tap_columns = std::move(taps);
  if (!hooks.tap_columns.empty()) {
    hooks.on_tap = [&](Index col, Index first_row, std::span<const BusCell> cells) {
      captured.taps[{col, first_row}] = std::vector<BusCell>(cells.begin(), cells.end());
      return HookAction::kContinue;
    };
  }
  if (executor) spec.executor = *executor;
  const auto result =
      executor ? engine::run_wavefront(spec, hooks) : engine::run_reference(spec, hooks);
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

  const Index interval = 2;
  std::vector<Index> taps{std::max<Index>(1, p.n / 3), std::max<Index>(1, p.n / 2), p.n};
  taps.erase(std::unique(taps.begin(), taps.end()), taps.end());

  dp::LocalBest reference_best;
  const Captured reference_out =
      run_with_hooks(spec, interval, taps, std::nullopt, &reference_best);
  for (const auto kind : kExecutors) {
    SCOPED_TRACE(engine::executor_name(kind));
    dp::LocalBest engine_best;
    const Captured engine_out = run_with_hooks(spec, interval, taps, kind, &engine_best);

    EXPECT_EQ(engine_best.score, reference_best.score);
    EXPECT_EQ(engine_best.i, reference_best.i);
    EXPECT_EQ(engine_best.j, reference_best.j);

    ASSERT_EQ(engine_out.special_rows.size(), reference_out.special_rows.size());
    for (const auto& [row, cells] : reference_out.special_rows) {
      ASSERT_TRUE(engine_out.special_rows.contains(row)) << "missing special row " << row;
      EXPECT_EQ(engine_out.special_rows.at(row), cells) << "special row " << row;
    }
    ASSERT_EQ(engine_out.taps.size(), reference_out.taps.size());
    for (const auto& [key, cells] : reference_out.taps) {
      ASSERT_TRUE(engine_out.taps.contains(key))
          << "missing tap col " << key.first << " first_row " << key.second;
      EXPECT_EQ(engine_out.taps.at(key), cells)
          << "tap col " << key.first << " first_row " << key.second;
    }
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

// Fuzz: random geometry, grids, modes and tap sets, engine (both executors)
// vs reference.
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

  // Random ascending unique tap set.
  std::vector<Index> taps;
  for (Index c = 1; c <= n; ++c) {
    if (rng.chance(0.05)) taps.push_back(c);
  }
  const Index interval = 1 + static_cast<Index>(rng.below(4));

  dp::LocalBest rb;
  const Captured reference_out = run_with_hooks(spec, interval, taps, std::nullopt, &rb);
  for (const auto kind : kExecutors) {
    SCOPED_TRACE(engine::executor_name(kind));
    dp::LocalBest eb;
    const Captured engine_out = run_with_hooks(spec, interval, taps, kind, &eb);
    EXPECT_EQ(eb.score, rb.score);
    EXPECT_EQ(eb.i, rb.i);
    EXPECT_EQ(eb.j, rb.j);
    EXPECT_EQ(engine_out.special_rows, reference_out.special_rows);
    EXPECT_EQ(engine_out.taps, reference_out.taps);
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
  for (const auto kind : kExecutors) {
    SCOPED_TRACE(engine::executor_name(kind));
    spec.executor = kind;
    Hooks hooks;
    hooks.tap_columns = {50};
    int calls = 0;
    hooks.on_tap = [&](Index, Index first_row, std::span<const BusCell>) {
      ++calls;
      // Stop as soon as rows past 16 arrive.
      return first_row > 16 ? HookAction::kStop : HookAction::kContinue;
    };
    ThreadPool pool(4);
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
  hooks.tap_columns = {2};
  int calls = 0;
  hooks.on_tap = [&](Index col, Index first_row, std::span<const BusCell> cells) {
    ++calls;
    EXPECT_EQ(col, 2);
    EXPECT_EQ(first_row, 0);
    EXPECT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].h, -(5 + 2));  // Gap run of length 2 on row 0.
    return HookAction::kContinue;
  };
  const auto run = engine::run_wavefront(spec, hooks);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(run.stats.cells, 0);
}

TEST(Engine, TapColumnZeroRejected) {
  const auto a = rand_seq(4, 2);
  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = a.bases();
  spec.grid = tiny_grid(1, 1, 1);
  spec.recurrence = engine::Recurrence::global_start(CellState::kH, paper());
  Hooks hooks;
  hooks.tap_columns = {0};
  hooks.on_tap = [](Index, Index, std::span<const BusCell>) { return HookAction::kContinue; };
  EXPECT_THROW((void)engine::run_wavefront(spec, hooks), Error);
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

TEST(Engine, UnsortedTapColumnsRejected) {
  ProblemSpec spec;
  spec.recurrence = engine::Recurrence::global_start(CellState::kH, paper());
  spec.grid = tiny_grid(1, 1, 1);
  Hooks hooks;
  hooks.tap_columns = {5, 3};
  hooks.on_tap = [](Index, Index, std::span<const BusCell>) { return HookAction::kContinue; };
  EXPECT_THROW((void)engine::run_wavefront(spec, hooks), Error);
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
// Dataflow executor vs lockstep. The lockstep schedule is one legal execution
// of the dependency graph, so everything observable — best cell, cell and
// prune counts, every flushed special row byte — must be identical for any
// worker count, with or without pruning, under any pinned kernel.
// ---------------------------------------------------------------------------

struct ExecRun {
  dp::LocalBest best;
  engine::RunStats stats;
  std::vector<std::pair<Index, std::vector<BusCell>>> flushes;
  std::vector<dp::LocalBest> flush_best;
};

ExecRun run_with_executor(ProblemSpec spec, engine::ExecutorKind kind, int workers,
                          Index interval) {
  spec.executor = kind;
  ExecRun out;
  Hooks hooks;
  hooks.special_row_interval = interval;
  hooks.on_special_row = [&](Index row, std::span<const BusCell> cells,
                             const dp::LocalBest& best) {
    out.flushes.emplace_back(row, std::vector<BusCell>(cells.begin(), cells.end()));
    out.flush_best.push_back(best);
  };
  ThreadPool pool(workers);
  const auto run = engine::run_wavefront(spec, hooks, &pool);
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
}

TEST(DataflowEquivalence, MatchesLockstepAcrossShapesWorkersPruningAndKernels) {
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
      for (const char* kernel : {"", "scalar-local+best"}) {
        spec.kernel_override = kernel;
        const ExecRun lockstep =
            run_with_executor(spec, engine::ExecutorKind::kLockstep, 1, 2);
        for (const int workers : {1, 4}) {
          std::string label = "B=" + std::to_string(blocks) + " T=" + std::to_string(threads) +
                              " a=" + std::to_string(alpha) + " prune=" + (prune ? "1" : "0") +
                              " kernel=" + (kernel[0] ? kernel : "auto") +
                              " workers=" + std::to_string(workers);
          const ExecRun dataflow =
              run_with_executor(spec, engine::ExecutorKind::kDataflow, workers, 2);
          expect_same_run(lockstep, dataflow, label);
          EXPECT_EQ(dataflow.stats.diagonals, 0) << label;
        }
      }
    }
  }
}

TEST(DataflowEquivalence, StealHeavyGridMatchesLockstep) {
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
  const ExecRun lockstep = run_with_executor(spec, engine::ExecutorKind::kLockstep, 4, 4);
  const ExecRun dataflow = run_with_executor(spec, engine::ExecutorKind::kDataflow, 8, 4);
  expect_same_run(lockstep, dataflow, "steal-heavy");
  EXPECT_EQ(lockstep.stats.tiles_stolen, 0);
  EXPECT_EQ(lockstep.stats.starvation_waits, 0);
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
    const ExecRun lockstep = run_with_executor(spec, engine::ExecutorKind::kLockstep, 1, 1);
    const ExecRun dataflow = run_with_executor(spec, engine::ExecutorKind::kDataflow, 4, 1);
    expect_same_run(lockstep, dataflow, "m=" + std::to_string(m) + " n=" + std::to_string(n));
  }
}

TEST(DataflowProgress, PerTileFractionIsMonotoneAndComplete) {
  const auto a = rand_seq(200, 63001);
  const auto b = rand_seq(210, 63002);
  for (const auto kind : {engine::ExecutorKind::kLockstep, engine::ExecutorKind::kDataflow}) {
    ProblemSpec spec;
    spec.a = a.bases();
    spec.b = b.bases();
    spec.grid = tiny_grid(4, 4, 2);
    spec.recurrence = engine::Recurrence::local(paper());
    spec.executor = kind;
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
    ThreadPool pool(4);
    (void)engine::run_wavefront(spec, hooks, &pool);
    EXPECT_GT(calls, 1) << executor_name(kind);
    EXPECT_EQ(last_done, last_total) << executor_name(kind);
    EXPECT_GT(last_total, 0) << executor_name(kind);
  }
}

// The probe reports the row-major-first cell with H == value under both
// executors and any worker count, whatever order the tiles ran in: the first
// retired strip with a hit reports the smallest (i, j) among its tiles' hits.
TEST(Dataflow, ProbeReportsRowMajorFirstHitUnderBothExecutors) {
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
    for (const auto kind : kExecutors) {
      for (const int workers : {1, 4}) {
        const std::string label = std::string(engine::executor_name(kind)) + " value " +
                                  std::to_string(value) + " workers " + std::to_string(workers);
        spec.executor = kind;
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
}

TEST(Dataflow, BusPlanesMatchTheStripsThatExist) {
  // With fewer strips than window + 2 (window = 8 on a 4-worker pool), a
  // dataflow run allocates one vertical-bus plane per strip: the horizontal
  // bus (n + 1 cells) plus (blocks + 1) boundaries x strips planes x
  // (strip_rows + 1) cells.
  const auto b = rand_seq(200, 65002);
  for (const Index m : {8, 20}) {  // 1 and 3 strips of 8 rows.
    const auto a = rand_seq(m, 65001);
    ProblemSpec spec;
    spec.a = a.bases();
    spec.b = b.bases();
    spec.grid = tiny_grid(4, 4, 2);
    spec.recurrence = engine::Recurrence::local(paper());
    spec.executor = engine::ExecutorKind::kDataflow;
    ThreadPool pool(4);
    const auto run = engine::run_wavefront(spec, Hooks{}, &pool);
    const auto strips = static_cast<std::size_t>(run.stats.strips);
    ASSERT_EQ(strips, static_cast<std::size_t>((m + 7) / 8));
    const auto blocks = static_cast<std::size_t>(run.stats.blocks_used);
    EXPECT_EQ(run.stats.bus_bytes, (201 + (blocks + 1) * strips * 9) * sizeof(BusCell))
        << "m=" << m;
  }
}

TEST(Dataflow, ExecutorRegistryNamesRoundTrip) {
  EXPECT_STREQ(engine::executor_name(engine::ExecutorKind::kLockstep), "lockstep");
  EXPECT_STREQ(engine::executor_name(engine::ExecutorKind::kDataflow), "dataflow");
  EXPECT_EQ(engine::executor_from_name("lockstep"), engine::ExecutorKind::kLockstep);
  EXPECT_EQ(engine::executor_from_name("dataflow"), engine::ExecutorKind::kDataflow);
  EXPECT_THROW((void)engine::executor_from_name("warp"), Error);
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
                               const dp::LocalBest& best) {
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

// Same contract under the dataflow executor, in all four full/resume executor
// pairings: the executor is deliberately not part of the checkpoint envelope,
// so a checkpoint taken under one must resume byte-identically under the
// other.
TEST(Engine, DataflowResumeFromSpecialRowMatchesFullRunAcrossExecutors) {
  const auto a = rand_seq(250, 2301);
  const auto b = rand_seq(240, 2302);
  ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = tiny_grid(3, 8, 2);  // Strip height 16.
  spec.recurrence = engine::Recurrence::local(paper());

  const auto collect = [&](ProblemSpec run_spec, engine::ExecutorKind kind) {
    return run_with_executor(std::move(run_spec), kind, 4, 2);  // Every 32 rows.
  };

  const ExecRun full = collect(spec, engine::ExecutorKind::kLockstep);
  ASSERT_GE(full.flushes.size(), 3u);
  const auto& [middle_row, middle_bus] = full.flushes[1];
  ProblemSpec resumed_spec = spec;
  resumed_spec.start_row = middle_row;
  resumed_spec.initial_hbus = middle_bus;
  resumed_spec.initial_best = full.flush_best[1];

  for (const auto full_kind :
       {engine::ExecutorKind::kLockstep, engine::ExecutorKind::kDataflow}) {
    const ExecRun whole = collect(spec, full_kind);
    expect_same_run(full, whole, std::string("full under ") + executor_name(full_kind));
    for (const auto resume_kind :
         {engine::ExecutorKind::kLockstep, engine::ExecutorKind::kDataflow}) {
      const std::string label = std::string("full ") + executor_name(full_kind) + " -> resume " +
                                executor_name(resume_kind);
      const ExecRun resumed = collect(resumed_spec, resume_kind);
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
      const Captured reference = run_with_hooks(spec, 1, {1, n}, std::nullopt, nullptr);
      for (const auto kind : kExecutors) {
        const std::string label = std::string("end") + std::to_string(static_cast<int>(end)) +
                                  " B=" + std::to_string(blocks) + " " +
                                  engine::executor_name(kind);
        spec.executor = kind;
        check::BusAuditor auditor;
        Captured got;
        Hooks hooks;
        hooks.bus_audit = &auditor;
        hooks.special_row_interval = 1;
        hooks.on_special_row = [&](Index row, std::span<const BusCell> cells,
                                   const dp::LocalBest&) {
          got.special_rows[row] = std::vector<BusCell>(cells.begin(), cells.end());
        };
        hooks.tap_columns = {1, n};
        hooks.on_tap = [&](Index col, Index first_row, std::span<const BusCell> cells) {
          got.taps[{col, first_row}] = std::vector<BusCell>(cells.begin(), cells.end());
          return HookAction::kContinue;
        };
        const auto run = engine::run_wavefront(spec, hooks);
        EXPECT_TRUE(auditor.ok()) << label << "\n" << auditor.report();
        EXPECT_GE(striped_cells(run.stats) * 100, run.stats.cells * 95)
            << label << ": " << engine::kernel_usage_summary(run.stats);
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
        ASSERT_EQ(got.taps.size(), reference.taps.size()) << label;
        for (const auto& [key, cells] : reference.taps) {
          EXPECT_TRUE(same_or_both_unreachable(got.taps[key], cells))
              << label << " tap col " << key.first << " first_row " << key.second;
        }

        Hooks probe;
        probe.bus_audit = &auditor;
        probe.find_value = target;
        const auto hit = engine::run_wavefront(spec, probe);
        EXPECT_TRUE(auditor.ok()) << label << " probe\n" << auditor.report();
        EXPECT_TRUE(hit.found) << label;
        EXPECT_EQ(std::pair(hit.found_i, hit.found_j), std::pair(Index{1}, want_j)) << label;
      }
    }
  }
}

}  // namespace
}  // namespace cudalign
