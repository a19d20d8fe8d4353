// Kernel-family equivalence: every registered kernel variant must be
// byte-identical to the legacy loop (tile level) and to run_reference
// (problem level) on everything it claims to run — buses, taps, best cell and
// probe results — across modes, feature combinations, odd tile shapes and
// boundary corners.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/executor.hpp"
#include "engine/kernel_detail.hpp"
#include "engine/kernel_registry.hpp"
#include "test_util.hpp"

namespace cudalign {
namespace {

using engine::BusCell;
using engine::KernelId;
using engine::KernelVariant;
using engine::Recurrence;
using engine::TileJob;
using engine::TileResult;
using engine::TileScratch;
using test::rand_seq;

scoring::Scheme paper() { return scoring::Scheme::paper_defaults(); }

/// A self-contained tile problem: owns the sequences and bus buffers so each
/// kernel variant can run on a fresh copy.
struct TileCase {
  std::string name;
  Index r0 = 0, r1 = 0, c0 = 0, c1 = 0;
  seq::Sequence a, b;
  Recurrence recurrence;
  std::vector<BusCell> hbus, vbus_in;
  std::vector<Index> tap_cols;
  bool track_best = false;
  std::optional<Score> find_value;
};

struct TileOutputs {
  std::vector<BusCell> hbus, vbus_out;
  TileResult result;
};

/// A job over the case's sequences and scheme, reading `hbus` / `vbus_out`
/// (the caller's copies) and the case's incoming vertical bus.
TileJob job_view(const TileCase& tc, std::vector<BusCell>& hbus, std::vector<BusCell>& vbus_out) {
  TileJob job;
  job.r0 = tc.r0;
  job.r1 = tc.r1;
  job.c0 = tc.c0;
  job.c1 = tc.c1;
  job.a = tc.a.bases();
  job.b = tc.b.bases();
  job.recurrence = &tc.recurrence;
  job.hbus = hbus;
  job.vbus_in = tc.vbus_in;
  job.vbus_out = vbus_out;
  job.tap_cols = tc.tap_cols;
  job.track_best = tc.track_best;
  job.find_value = tc.find_value;
  return job;
}

TileOutputs run_variant(const TileCase& tc, const KernelVariant& variant) {
  TileOutputs out;
  out.hbus = tc.hbus;
  out.vbus_out.resize(tc.vbus_in.size());
  TileScratch scratch;
  out.result = variant.run(job_view(tc, out.hbus, out.vbus_out), scratch);
  return out;
}

bool variant_accepts(const TileCase& tc, const KernelVariant& variant) {
  // can_run may inspect the buses, so build a throwaway job view.
  std::vector<BusCell> hbus = tc.hbus;
  std::vector<BusCell> vbus_out(tc.vbus_in.size());
  return variant.can_run(job_view(tc, hbus, vbus_out));
}

/// The variant automatic selection picks for the case (no pin in force).
KernelId auto_selected(const TileCase& tc) {
  std::vector<BusCell> hbus = tc.hbus;
  std::vector<BusCell> vbus_out(tc.vbus_in.size());
  return engine::select_kernel(job_view(tc, hbus, vbus_out)).id;
}

void expect_identical(const TileOutputs& expected, const TileOutputs& got,
                      const std::string& label) {
  EXPECT_EQ(expected.hbus, got.hbus) << label << ": horizontal bus differs";
  EXPECT_EQ(expected.vbus_out, got.vbus_out) << label << ": vertical bus differs";
  EXPECT_EQ(expected.result.taps, got.result.taps) << label << ": taps differ";
  EXPECT_EQ(expected.result.best.score, got.result.best.score) << label;
  EXPECT_EQ(expected.result.best.i, got.result.best.i) << label;
  EXPECT_EQ(expected.result.best.j, got.result.best.j) << label;
  EXPECT_EQ(expected.result.found, got.result.found) << label;
  EXPECT_EQ(expected.result.found_i, got.result.found_i) << label;
  EXPECT_EQ(expected.result.found_j, got.result.found_j) << label;
  EXPECT_EQ(expected.result.cells, got.result.cells) << label;
}

/// Runs every eligible registry variant on the case and compares against the
/// legacy loop byte for byte. Returns how many variants (beyond legacy) ran.
int check_all_variants(const TileCase& tc) {
  const KernelVariant& legacy = engine::kernel_info(KernelId::kLegacy);
  const TileOutputs expected = run_variant(tc, legacy);
  int ran = 0;
  for (const KernelVariant& variant : engine::kernel_registry()) {
    if (variant.id == KernelId::kLegacy) continue;
    if (!variant_accepts(tc, variant)) continue;
    ++ran;
    const TileOutputs got = run_variant(tc, variant);
    expect_identical(expected, got, tc.name + " / " + variant.name);
  }
  return ran;
}

BusCell random_bus_cell(Rng& rng, bool local) {
  const Score h = local ? static_cast<Score>(rng.below(60))
                        : static_cast<Score>(rng.below(100)) - 40;
  const Score gap = rng.chance(0.2) ? kNegInf : static_cast<Score>(rng.below(80)) - 20;
  return BusCell{h, gap};
}

TileCase make_case(Rng& rng, Index rows, Index w, int mode, bool best, bool taps, bool find,
                   const scoring::Scheme& scheme, const std::string& name) {
  TileCase tc;
  tc.name = name;
  tc.r0 = static_cast<Index>(rng.below(5));
  tc.c0 = static_cast<Index>(rng.below(5));
  tc.r1 = tc.r0 + rows;
  tc.c1 = tc.c0 + w;
  tc.a = rand_seq(tc.r1, rng.next());
  tc.b = rand_seq(tc.c1, rng.next());
  const bool local = mode == 0;
  if (local) {
    tc.recurrence = Recurrence::local(scheme);
  } else if (mode == 1) {
    tc.recurrence = Recurrence::global_start(dp::CellState::kH, scheme);
  } else if (mode == 2) {
    tc.recurrence = Recurrence::global_start(dp::CellState::kE, scheme);
  } else if (mode == 3) {
    tc.recurrence = Recurrence::global_end(dp::CellState::kF, scheme);
  } else {
    tc.recurrence = Recurrence::global_end(dp::CellState::kE, scheme);
  }
  tc.hbus.resize(static_cast<std::size_t>(w) + 1);
  for (auto& cell : tc.hbus) cell = random_bus_cell(rng, local);
  tc.vbus_in.resize(static_cast<std::size_t>(rows) + 1);
  for (auto& cell : tc.vbus_in) cell = random_bus_cell(rng, local);
  if (taps && w >= 1) {
    for (Index c = tc.c0 + 1; c <= tc.c1; ++c) {
      if (rng.chance(0.15)) tc.tap_cols.push_back(c);
    }
    if (tc.tap_cols.empty()) tc.tap_cols.push_back(tc.c0 + 1 + static_cast<Index>(rng.below(w)));
  }
  tc.track_best = best;
  if (find) tc.find_value = static_cast<Score>(rng.below(30));
  return tc;
}

// Every (mode, feature) combination over a fixed set of odd shapes.
TEST(KernelEquivalence, FeatureMatrixAcrossShapes) {
  Rng rng(2024);
  const std::vector<std::pair<Index, Index>> shapes = {
      {1, 1}, {1, 9}, {9, 1}, {3, 4}, {7, 13}, {8, 8}, {16, 16}, {5, 33}, {33, 5}, {40, 64}};
  int vector_runs = 0;
  for (const auto& [rows, w] : shapes) {
    for (int mode = 0; mode < 5; ++mode) {
      for (int feat = 0; feat < 8; ++feat) {
        const bool best = feat & 1;
        const bool taps = feat & 2;
        const bool find = feat & 4;
        const std::string name = "shape" + std::to_string(rows) + "x" + std::to_string(w) +
                                 "_mode" + std::to_string(mode) + "_feat" + std::to_string(feat);
        const TileCase tc =
            make_case(rng, rows, w, mode, best, taps, find, paper(), name);
        vector_runs += check_all_variants(tc);
      }
    }
  }
  // The matrix must actually exercise the specialized kernels, vector ones
  // included (local plain/best cases with in-range buses).
  EXPECT_GT(vector_runs, 100);
}

// Random fuzz over shapes, schemes and bus contents.
TEST(KernelEquivalence, FuzzRandomTiles) {
  Rng rng(77);
  const std::vector<scoring::Scheme> schemes = {paper(), scoring::Scheme{2, -1, 3, 1},
                                                scoring::Scheme{3, -2, 7, 2}};
  for (int iter = 0; iter < 200; ++iter) {
    const Index rows = 1 + static_cast<Index>(rng.below(40));
    const Index w = 1 + static_cast<Index>(rng.below(40));
    const int mode = static_cast<int>(rng.below(5));
    const TileCase tc = make_case(rng, rows, w, mode, rng.chance(0.5), rng.chance(0.4),
                                  rng.chance(0.3), schemes[iter % schemes.size()],
                                  "fuzz" + std::to_string(iter));
    check_all_variants(tc);
  }
}

// The 16-bit kernel must refuse tiles whose scores could leave its lanes, and
// dispatch must quietly fall back to an exact variant.
TEST(KernelEquivalence, Vector16OverflowFallsBackToWideKernel) {
  Rng rng(99);
  TileCase tc = make_case(rng, 24, 24, 0, true, false, false, paper(), "overflow");
  // A bus value near the int16 ceiling makes the reachable-score bound fail.
  tc.hbus[5].h = 30000;
  const KernelVariant* v16 = engine::find_kernel("v16-local+best");
  ASSERT_NE(v16, nullptr);
  EXPECT_FALSE(variant_accepts(tc, *v16));
  const KernelVariant* v32 = engine::find_kernel("v32-local+best");
  ASSERT_NE(v32, nullptr);
  ASSERT_TRUE(variant_accepts(tc, *v32));
  expect_identical(run_variant(tc, engine::kernel_info(KernelId::kLegacy)),
                   run_variant(tc, *v32), "overflow/v32");

  // Oversized penalties are rejected up front too.
  TileCase big = make_case(rng, 8, 8, 0, true, false, false,
                           scoring::Scheme{5000, -5000, 5000, 5000}, "big-scheme");
  EXPECT_FALSE(variant_accepts(big, *v16));
}

// Sentinel H inputs (unreachable states) drift below kNegInf in 32-bit
// arithmetic; the 16-bit kernel cannot reproduce that and must refuse.
TEST(KernelEquivalence, Vector16RejectsSentinelHInputs) {
  Rng rng(123);
  TileCase tc = make_case(rng, 16, 16, 0, false, false, false, paper(), "sentinel-h");
  tc.vbus_in[3].h = kNegInf;
  const KernelVariant* v16 = engine::find_kernel("v16-local");
  ASSERT_NE(v16, nullptr);
  EXPECT_FALSE(variant_accepts(tc, *v16));
  // The 32-bit kernel performs the exact sentinel arithmetic and stays in.
  const KernelVariant* v32 = engine::find_kernel("v32-local");
  ASSERT_NE(v32, nullptr);
  ASSERT_TRUE(variant_accepts(tc, *v32));
  expect_identical(run_variant(tc, engine::kernel_info(KernelId::kLegacy)),
                   run_variant(tc, *v32), "sentinel-h/v32");
}

// ---------------------------------------------------------------------------
// Problem level: run_wavefront pinned to each variant vs run_reference.
// ---------------------------------------------------------------------------

engine::RunResult run_pinned(const std::string& kernel, Index m, Index n, std::uint64_t seed) {
  const auto a = rand_seq(m, seed);
  const auto b = rand_seq(n, seed ^ 0xbeef);
  engine::ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = engine::GridSpec{3, 8, 4, 1};  // strip_rows 32, chunks ~n/3.
  spec.recurrence = Recurrence::local(paper());
  spec.kernel_override = kernel;
  return engine::run_wavefront(spec, engine::Hooks{});
}

TEST(KernelDispatch, EveryVariantMatchesReferenceOnLocalProblems) {
  const Index m = 150, n = 170;
  const auto a = rand_seq(m, 31337);
  const auto b = rand_seq(n, 31337 ^ 0xbeef);
  engine::ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = engine::GridSpec{3, 8, 4, 1};
  spec.recurrence = Recurrence::local(paper());
  const auto expected = engine::run_reference(spec, engine::Hooks{});
  for (const KernelVariant& variant : engine::kernel_registry()) {
    const auto run = run_pinned(variant.name, m, n, 31337);
    EXPECT_EQ(run.best.score, expected.best.score) << variant.name;
    EXPECT_EQ(run.best.i, expected.best.i) << variant.name;
    EXPECT_EQ(run.best.j, expected.best.j) << variant.name;
    EXPECT_EQ(run.stats.cells, static_cast<WideScore>(m) * n) << variant.name;
  }
}

TEST(KernelDispatch, PinnedVariantActuallyRunsAndIsCounted) {
  const auto run = run_pinned("v16-local+best", 160, 180, 4242);
  const auto& tally =
      run.stats.kernels[static_cast<std::size_t>(KernelId::kVec16LocalBest)];
  EXPECT_GT(tally.tiles, 0);
  EXPECT_GT(tally.cells, 0);
  // Tallies are complete: every non-pruned tile is attributed to a variant.
  Index tiles = 0;
  WideScore cells = 0;
  for (const auto& t : run.stats.kernels) {
    tiles += t.tiles;
    cells += t.cells;
  }
  EXPECT_EQ(tiles, run.stats.tiles - run.stats.pruned_tiles);
  EXPECT_EQ(cells, run.stats.cells);
  EXPECT_FALSE(engine::kernel_usage_summary(run.stats).empty());
}

TEST(KernelDispatch, AutomaticSelectionPrefersStripedKernelOnStage1Tiles) {
  // Small random Stage-1 tiles sit inside the 8-bit envelope, so the cheapest
  // variant — the striped 8-bit sweep — wins the automatic selection.
  const auto run = run_pinned("", 160, 180, 555);
  const auto& striped8 =
      run.stats.kernels[static_cast<std::size_t>(KernelId::kStriped8LocalBest)];
  EXPECT_GT(striped8.tiles, 0) << engine::kernel_usage_summary(run.stats);
}

TEST(KernelDispatch, UnknownOverrideNameIsRejected) {
  engine::ProblemSpec spec;
  const auto a = rand_seq(8, 1);
  spec.a = a.bases();
  spec.b = a.bases();
  spec.grid = engine::GridSpec{1, 2, 1, 1};
  spec.recurrence = Recurrence::local(paper());
  spec.kernel_override = "no-such-kernel";
  EXPECT_THROW((void)engine::run_wavefront(spec, engine::Hooks{}), Error);
  EXPECT_THROW(engine::set_kernel_override("no-such-kernel"), Error);
}

TEST(KernelDispatch, ProcessOverridePinsSelection) {
  engine::set_kernel_override("legacy");
  const auto run = run_pinned("", 100, 120, 777);
  engine::set_kernel_override("");
  const auto& legacy = run.stats.kernels[static_cast<std::size_t>(KernelId::kLegacy)];
  EXPECT_EQ(legacy.tiles, run.stats.tiles - run.stats.pruned_tiles)
      << engine::kernel_usage_summary(run.stats);
}

// ---------------------------------------------------------------------------
// Lane-envelope boundaries: the narrow-kernel prechecks must admit every job
// they are exact for (no over-rejection at the exact boundary) and refuse one
// step beyond it.
// ---------------------------------------------------------------------------

TEST(LaneEnvelope, Int16CeilingBoundaryStaysAdmittedAndExact) {
  Rng rng(4242);
  TileCase tc = make_case(rng, 24, 24, 0, true, false, false, paper(), "ceiling-16");
  // paper match = 1, max(rows, w) = 24: the reachable-score bound is
  // max_h + 24, so max_h = 27976 lands exactly on the 28000 ceiling.
  tc.hbus[5].h = 27976;
  const KernelVariant* v16 = engine::find_kernel("v16-local+best");
  const KernelVariant* s16 = engine::find_kernel("striped16-local+best");
  ASSERT_NE(v16, nullptr);
  ASSERT_NE(s16, nullptr);
  EXPECT_TRUE(variant_accepts(tc, *v16));
  EXPECT_TRUE(variant_accepts(tc, *s16));
  const TileOutputs expected = run_variant(tc, engine::kernel_info(KernelId::kLegacy));
  expect_identical(expected, run_variant(tc, *v16), "ceiling-16/v16");
  expect_identical(expected, run_variant(tc, *s16), "ceiling-16/striped16");
  // One above the boundary the bound can leave the lanes: both must refuse.
  tc.hbus[5].h = 27977;
  EXPECT_FALSE(variant_accepts(tc, *v16));
  EXPECT_FALSE(variant_accepts(tc, *s16));
}

TEST(LaneEnvelope, Int16GapFloorBoundary) {
  Rng rng(4243);
  TileCase tc = make_case(rng, 20, 20, 0, false, false, false, paper(), "floor-16");
  // A gap-chain value grazing the real floor: admitted and bit-exact (its
  // decayed continuations lose to genuine >= -gap_first values before any
  // published cell, so lane drift below the floor is unobservable).
  tc.vbus_in[4].gap = -4096;
  const KernelVariant* v16 = engine::find_kernel("v16-local");
  const KernelVariant* s16 = engine::find_kernel("striped16-local");
  ASSERT_NE(v16, nullptr);
  ASSERT_NE(s16, nullptr);
  EXPECT_TRUE(variant_accepts(tc, *v16));
  EXPECT_TRUE(variant_accepts(tc, *s16));
  const TileOutputs expected = run_variant(tc, engine::kernel_info(KernelId::kLegacy));
  expect_identical(expected, run_variant(tc, *v16), "floor-16/v16");
  expect_identical(expected, run_variant(tc, *s16), "floor-16/striped16");
  tc.vbus_in[4].gap = -4097;
  EXPECT_FALSE(variant_accepts(tc, *v16));
  EXPECT_FALSE(variant_accepts(tc, *s16));
}

TEST(LaneEnvelope, Int8CeilingEscalatesToWiderLanes) {
  Rng rng(4244);
  TileCase tc = make_case(rng, 16, 16, 0, true, false, false, paper(), "ceiling-8");
  // Reachable-score bound = max_h + 16; 84 lands exactly on the 100 ceiling.
  tc.hbus[3].h = 84;
  const KernelVariant* s8 = engine::find_kernel("striped8-local+best");
  const KernelVariant* s16 = engine::find_kernel("striped16-local+best");
  ASSERT_NE(s8, nullptr);
  ASSERT_NE(s16, nullptr);
  EXPECT_TRUE(variant_accepts(tc, *s8));
  const TileOutputs expected = run_variant(tc, engine::kernel_info(KernelId::kLegacy));
  expect_identical(expected, run_variant(tc, *s8), "ceiling-8/striped8");
  // One above: the 8-bit lanes could overflow, so the precheck escalates the
  // tile to the 16-bit variant, which stays exact.
  tc.hbus[3].h = 85;
  EXPECT_FALSE(variant_accepts(tc, *s8));
  ASSERT_TRUE(variant_accepts(tc, *s16));
  expect_identical(run_variant(tc, engine::kernel_info(KernelId::kLegacy)),
                   run_variant(tc, *s16), "ceiling-8-escalated/striped16");
}

TEST(LaneEnvelope, Int8GapFloorEscalatesToWiderLanes) {
  Rng rng(4245);
  TileCase tc = make_case(rng, 16, 16, 0, false, false, false, paper(), "floor-8");
  tc.hbus[2].gap = -64;  // Exactly the 8-bit real floor: still admitted.
  const KernelVariant* s8 = engine::find_kernel("striped8-local");
  const KernelVariant* s16 = engine::find_kernel("striped16-local");
  ASSERT_NE(s8, nullptr);
  ASSERT_NE(s16, nullptr);
  EXPECT_TRUE(variant_accepts(tc, *s8));
  expect_identical(run_variant(tc, engine::kernel_info(KernelId::kLegacy)),
                   run_variant(tc, *s8), "floor-8/striped8");
  tc.hbus[2].gap = -65;
  EXPECT_FALSE(variant_accepts(tc, *s8));
  ASSERT_TRUE(variant_accepts(tc, *s16));
  expect_identical(run_variant(tc, engine::kernel_info(KernelId::kLegacy)),
                   run_variant(tc, *s16), "floor-8-escalated/striped16");
}

// The match term alone decides a tall tile: with every bus H at 0 the int8
// bound is match * min(rows, w), so 100 rows sit exactly on the ceiling and
// 101 pass it. A default Stage-1 tile (256 rows, the paper's alpha * T) is
// refused by striped8 on that term and admitted by striped16, which stays
// exact and is what automatic selection runs.
TEST(LaneEnvelope, TallTileRefusedByInt8OnItsMatchTermAlone) {
  const KernelVariant* s8 = engine::find_kernel("striped8-local+best");
  const KernelVariant* s16 = engine::find_kernel("striped16-local+best");
  ASSERT_NE(s8, nullptr);
  ASSERT_NE(s16, nullptr);
  Rng rng(4246);
  for (const Index rows : {100, 101, 256}) {
    TileCase tc = make_case(rng, rows, 417, 0, true, false, false, paper(),
                            "tall" + std::to_string(rows));
    for (BusCell& cell : tc.hbus) cell = BusCell{0, kNegInf};
    for (BusCell& cell : tc.vbus_in) cell = BusCell{0, kNegInf};
    EXPECT_EQ(variant_accepts(tc, *s8), rows <= 100) << tc.name;
    ASSERT_TRUE(variant_accepts(tc, *s16)) << tc.name;
    EXPECT_EQ(auto_selected(tc),
              rows <= 100 ? KernelId::kStriped8LocalBest : KernelId::kStriped16LocalBest)
        << tc.name;
    expect_identical(run_variant(tc, engine::kernel_info(KernelId::kLegacy)),
                     run_variant(tc, *s16), tc.name + " / striped16");
  }
}

// ---------------------------------------------------------------------------
// ISA dispatch: every compiled backend must produce byte-identical tiles.
// ---------------------------------------------------------------------------

/// Every SIMD ISA the striped kernels know; tests skip the ones this build
/// or CPU cannot force.
const std::vector<engine::SimdIsa>& all_isas() {
  static const std::vector<engine::SimdIsa> kIsas = {
      engine::SimdIsa::kGeneric, engine::SimdIsa::kSse2, engine::SimdIsa::kAvx2,
      engine::SimdIsa::kAvx512};
  return kIsas;
}

/// Runs `body` once per SIMD ISA this build and CPU can force (skipping the
/// ones it cannot); returns how many ran (the generic baseline always does).
template <typename Body>
int for_each_isa(Body body) {
  int forced = 0;
  for (const engine::SimdIsa isa : all_isas()) {
    try {
      engine::set_simd_isa_override(isa);
    } catch (const Error&) {
      continue;
    }
    ++forced;
    body(std::string(engine::simd_isa_name(isa)));
  }
  engine::clear_simd_isa_override();
  return forced;
}

/// The striped local variants, every lane width with and without best
/// tracking.
constexpr const char* kStripedLocalNames[] = {"striped8-local", "striped8-local+best",
                                              "striped16-local", "striped16-local+best",
                                              "striped32-local+best"};

/// Runs every striped local variant that admits each case under every
/// forced ISA and compares it with legacy byte for byte.
void expect_striped_local_exact(const std::vector<TileCase>& cases) {
  const int forced = for_each_isa([&](const std::string& isa) {
    for (const TileCase& tc : cases) {
      const TileOutputs expected = run_variant(tc, engine::kernel_info(KernelId::kLegacy));
      for (const char* name : kStripedLocalNames) {
        const KernelVariant* variant = engine::find_kernel(name);
        ASSERT_NE(variant, nullptr) << name;
        if (!variant_accepts(tc, *variant)) continue;
        expect_identical(expected, run_variant(tc, *variant), tc.name + " / " + name + " / " + isa);
      }
    }
  });
  EXPECT_GE(forced, 1);  // The generic baseline is always available.
}

TEST(StripedIsa, EveryCompiledBackendMatchesLegacyByteForByte) {
  Rng rng(5150);
  std::vector<TileCase> cases;
  for (int iter = 0; iter < 12; ++iter) {
    const Index rows = 1 + static_cast<Index>(rng.below(40));
    const Index w = 1 + static_cast<Index>(rng.below(70));
    cases.push_back(make_case(rng, rows, w, 0, iter % 2 == 1, false, false, paper(),
                              "isa" + std::to_string(iter)));
  }
  expect_striped_local_exact(cases);
}

// Real segment lengths: widths p*t - 1, p*t and p*t + 1 for every lane count
// a backend stripes (4 to 64) and t up to 14, so every ISA runs long
// segments with one, no and p - 1 pad slots.
TEST(StripedIsa, LaneEdgeWidthsAtRealSegmentLengths) {
  Rng rng(5151);
  std::vector<TileCase> cases;
  for (const Index p : {4, 8, 16, 32, 64}) {
    for (Index t = 1; t <= 14; ++t) {
      for (const Index w : {p * t - 1, p * t, p * t + 1}) {
        const Index rows = 1 + static_cast<Index>(rng.below(300));
        std::string name = "p";
        name += std::to_string(p);
        name += "_w";
        name += std::to_string(w);
        cases.push_back(
            make_case(rng, rows, w, 0, rng.chance(0.5), false, false, paper(), name));
      }
    }
  }
  expect_striped_local_exact(cases);
}

// Best tracking at the lane edge: a row that only ties the running best keeps
// the earlier cell, and a later row that beats it in the last real column
// takes over. w = 64t - 1 leaves exactly one pad slot, right after the last
// real column, for every lane count.
TEST(StripedIsa, RowMaxTiesKeepTheEarlierCellAndPadAdjacentWinsReplaceIt) {
  for (const Index w : {63, 191, 447}) {
    for (const Index rows : {2, 3}) {
      TileCase tc;
      tc.name = "w" + std::to_string(w) + "_rows" + std::to_string(rows);
      tc.r0 = 2;
      tc.c0 = 5;
      tc.r1 = tc.r0 + rows;
      tc.c1 = tc.c0 + w;
      // Rows A, A, G over columns alternating C/A and ending in A, G: rows 1
      // and 2 both peak at 1 (on every A), and row 3 scores 2 only at the
      // last column (its diagonal predecessor is row 2's A).
      std::vector<seq::Base> a(static_cast<std::size_t>(tc.r1), seq::kA);
      a.back() = rows == 3 ? seq::kG : seq::kA;
      std::vector<seq::Base> b(static_cast<std::size_t>(tc.c1), seq::kC);
      for (Index j = 0; j < w; ++j) {
        if ((w - 2 - j) % 2 == 0) b[static_cast<std::size_t>(tc.c0 + j)] = seq::kA;
      }
      b.back() = seq::kG;
      tc.a = seq::Sequence("a", std::move(a));
      tc.b = seq::Sequence("b", std::move(b));
      tc.recurrence = Recurrence::local(paper());
      tc.track_best = true;
      tc.hbus.resize(static_cast<std::size_t>(w) + 1);
      for (Index j = 0; j <= w; ++j) {
        tc.hbus[static_cast<std::size_t>(j)] = tc.recurrence.top_boundary(j);
      }
      tc.vbus_in.resize(static_cast<std::size_t>(rows) + 1);
      for (Index i = 0; i <= rows; ++i) {
        tc.vbus_in[static_cast<std::size_t>(i)] = tc.recurrence.left_boundary(i);
      }
      const TileOutputs legacy = run_variant(tc, engine::kernel_info(KernelId::kLegacy));
      const dp::LocalBest want = rows == 2 ? dp::LocalBest{1, tc.r0 + 1, tc.c0 + 1 + w % 2}
                                           : dp::LocalBest{2, tc.r0 + 3, tc.c1};
      EXPECT_EQ(legacy.result.best.score, want.score) << tc.name;
      EXPECT_EQ(legacy.result.best.i, want.i) << tc.name;
      EXPECT_EQ(legacy.result.best.j, want.j) << tc.name;
      for_each_isa([&](const std::string& isa) {
        for (const char* name : {"striped8-local+best", "striped16-local+best",
                                 "striped32-local+best"}) {
          const KernelVariant* variant = engine::find_kernel(name);
          ASSERT_NE(variant, nullptr) << name;
          ASSERT_TRUE(variant_accepts(tc, *variant)) << tc.name << " / " << name;
          expect_identical(legacy, run_variant(tc, *variant), tc.name + " / " + name + " / " + isa);
        }
      });
    }
  }
}

TEST(StripedIsa, ForcedGenericBaselineMatchesReferenceProblemLevel) {
  engine::set_simd_isa_override(engine::SimdIsa::kGeneric);
  const auto run = run_pinned("striped16-local+best", 150, 170, 6001);
  engine::clear_simd_isa_override();
  const auto ref = run_pinned("legacy", 150, 170, 6001);
  EXPECT_EQ(run.best.score, ref.best.score);
  EXPECT_EQ(run.best.i, ref.best.i);
  EXPECT_EQ(run.best.j, ref.best.j);
  const auto& tally = run.stats.kernels[static_cast<std::size_t>(KernelId::kStriped16LocalBest)];
  EXPECT_GT(tally.tiles, 0) << engine::kernel_usage_summary(run.stats);
}

// Lockstep and dataflow executors must flush byte-identical special rows with
// a striped kernel pinned (the checkpoint store consumes these bytes).
TEST(StripedIsa, CrossExecutorSpecialRowsIdenticalWithStripedPinned) {
  const auto a = rand_seq(200, 7007);
  const auto b = rand_seq(230, 7008);
  auto run_one = [&](engine::ExecutorKind kind) {
    engine::ProblemSpec spec;
    spec.a = a.bases();
    spec.b = b.bases();
    spec.grid = engine::GridSpec{3, 8, 4, 1};
    spec.recurrence = Recurrence::local(paper());
    spec.kernel_override = "striped16-local+best";
    spec.executor = kind;
    std::map<Index, std::vector<BusCell>> rows;
    engine::Hooks hooks;
    hooks.special_row_interval = 3;
    hooks.on_special_row = [&](Index row, std::span<const BusCell> cells, const dp::LocalBest&) {
      rows[row] = std::vector<BusCell>(cells.begin(), cells.end());
    };
    const auto result = engine::run_wavefront(spec, hooks);
    const auto& tally =
        result.stats.kernels[static_cast<std::size_t>(KernelId::kStriped16LocalBest)];
    EXPECT_GT(tally.tiles, 0) << engine::kernel_usage_summary(result.stats);
    return rows;
  };
  const auto lockstep = run_one(engine::ExecutorKind::kLockstep);
  const auto dataflow = run_one(engine::ExecutorKind::kDataflow);
  ASSERT_EQ(lockstep.size(), dataflow.size());
  for (const auto& [row, cells] : lockstep) {
    const auto it = dataflow.find(row);
    ASSERT_NE(it, dataflow.end()) << "row " << row;
    ASSERT_EQ(cells.size(), it->second.size()) << "row " << row;
    EXPECT_EQ(0, std::memcmp(cells.data(), it->second.data(),
                             cells.size() * sizeof(BusCell)))
        << "row " << row << " bytes differ";
  }
}

// ---------------------------------------------------------------------------
// Environment overrides fail fast on unknown names (exit code 2, actionable
// message) instead of silently falling back to automatic selection.
// ---------------------------------------------------------------------------

TEST(KernelOverrideDeathTest, UnknownEnvKernelNameFailsFastWithExitCode2) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  setenv("CUDALIGN_KERNEL", "no-such-kernel", 1);
  EXPECT_EXIT(engine::reload_kernel_override_from_env(), ::testing::ExitedWithCode(2),
              "unknown kernel name in CUDALIGN_KERNEL.*no-such-kernel");
  // The message is actionable: it lists every valid kernel name.
  EXPECT_EXIT(engine::reload_kernel_override_from_env(), ::testing::ExitedWithCode(2),
              "valid names: legacy.*striped16-local");
  unsetenv("CUDALIGN_KERNEL");
  engine::reload_kernel_override_from_env();  // Restore the no-override state.
}

TEST(KernelOverrideDeathTest, KnownEnvKernelNameIsAdopted) {
  setenv("CUDALIGN_KERNEL", "striped16-local+best", 1);
  engine::reload_kernel_override_from_env();
  EXPECT_EQ(engine::kernel_override(), engine::find_kernel("striped16-local+best"));
  unsetenv("CUDALIGN_KERNEL");
  engine::reload_kernel_override_from_env();
  EXPECT_EQ(engine::kernel_override(), nullptr);
}

TEST(KernelOverrideDeathTest, UnknownEnvSimdIsaFailsFastWithExitCode2) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  setenv("CUDALIGN_SIMD", "sse9", 1);
  EXPECT_EXIT(engine::reload_simd_isa_from_env(), ::testing::ExitedWithCode(2),
              "unknown SIMD ISA in CUDALIGN_SIMD.*sse9");
  unsetenv("CUDALIGN_SIMD");
  engine::reload_simd_isa_from_env();
}

engine::RunResult run_global(Index m, Index n, engine::GridSpec grid, const Recurrence& rec) {
  const auto a = rand_seq(m, 9001);
  const auto b = rand_seq(n, 9002);
  engine::ProblemSpec spec;
  spec.a = a.bases();
  spec.b = b.bases();
  spec.grid = grid;
  spec.recurrence = rec;
  return engine::run_wavefront(spec, engine::Hooks{});
}

// Global tiles go to the striped int32 sweep; tiles narrower than the
// registry's vector shape gate (16 columns), or outside its envelope (a
// sentinel H input), fall back to the specialized scalar row sweep.
TEST(KernelDispatch, GlobalModeUsesSpecializedScalarSweep) {
  const auto tally = [](const engine::RunResult& run, KernelId id) {
    return run.stats.kernels[static_cast<std::size_t>(id)];
  };
  // Wide tiles, genuine boundaries: every tile runs striped.
  const auto wide = run_global(90, 110, engine::GridSpec{2, 8, 2, 1},
                               Recurrence::global_start(dp::CellState::kH, paper()));
  EXPECT_EQ(tally(wide, KernelId::kStriped32Global).tiles, wide.stats.tiles)
      << engine::kernel_usage_summary(wide.stats);
  // Narrow tiles (110 / 10 = 11 columns < 16): every tile runs scalar.
  const auto narrow = run_global(90, 110, engine::GridSpec{10, 4, 4, 1},
                                 Recurrence::global_start(dp::CellState::kH, paper()));
  EXPECT_EQ(tally(narrow, KernelId::kScalarGlobal).tiles, narrow.stats.tiles)
      << engine::kernel_usage_summary(narrow.stats);
  // An end-in-E reverse sweep has H = -inf on column 0. The executor runs
  // that column as its own one-wide chunk, so exactly one column of cells
  // stays scalar and every other tile starts from genuine H.
  const auto sentinel = run_global(90, 110, engine::GridSpec{2, 8, 2, 1},
                                   Recurrence::global_end(dp::CellState::kE, paper()));
  EXPECT_EQ(tally(sentinel, KernelId::kScalarGlobal).tiles, sentinel.stats.strips)
      << engine::kernel_usage_summary(sentinel.stats);
  EXPECT_EQ(tally(sentinel, KernelId::kScalarGlobal).cells, 90)
      << engine::kernel_usage_summary(sentinel.stats);
  EXPECT_EQ(tally(sentinel, KernelId::kStriped32Global).tiles,
            sentinel.stats.tiles - sentinel.stats.strips)
      << engine::kernel_usage_summary(sentinel.stats);
}

// ---------------------------------------------------------------------------
// striped32-global: the striped sweep in global mode on int32 lanes must be
// byte-identical to legacy and to its scalar-global* twin for every feature
// tuple, under every compiled ISA, at every lane-count edge.
// ---------------------------------------------------------------------------

/// The scalar-global* variant whose feature tuple matches the case.
const KernelVariant& scalar_twin(const TileCase& tc) {
  const bool taps = !tc.tap_cols.empty();
  const bool find = tc.find_value.has_value();
  const KernelId id = taps && find ? KernelId::kScalarGlobalTapsFind
                      : taps       ? KernelId::kScalarGlobalTaps
                      : find       ? KernelId::kScalarGlobalFind
                                   : KernelId::kScalarGlobal;
  return engine::kernel_info(id);
}

/// Runs striped32-global on `tc` (bypassing the selector's width gate, which
/// is a cost choice, not an exactness bound) and compares it with legacy and
/// the scalar twin.
void expect_striped32_exact(const TileCase& tc, const std::string& label) {
  const KernelVariant& striped = engine::kernel_info(KernelId::kStriped32Global);
  const TileOutputs expected = run_variant(tc, engine::kernel_info(KernelId::kLegacy));
  expect_identical(expected, run_variant(tc, scalar_twin(tc)), label + " / scalar twin");
  expect_identical(expected, run_variant(tc, striped), label + " / striped32-global");
}

/// Columns worth tapping: the first and last, and the first and last column
/// of every lane segment for p = 4, 8 and 16 lanes.
std::vector<Index> lane_edge_taps(const TileCase& tc) {
  const Index w = tc.c1 - tc.c0;
  std::vector<Index> cols = {tc.c0 + 1, tc.c1};
  for (const Index p : {4, 8, 16}) {
    const Index t = (w + p - 1) / p;
    for (Index l = 1; l < p && l * t < w; ++l) {
      cols.push_back(tc.c0 + l * t);      // Last column of lane l - 1.
      cols.push_back(tc.c0 + l * t + 1);  // First column of lane l.
    }
  }
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

/// The H value legacy computes at (row, col) of the tile (1-based within it).
Score legacy_h_at(TileCase tc, Index row, Index col) {
  tc.tap_cols = {tc.c0 + col};
  tc.find_value.reset();
  return run_variant(tc, engine::kernel_info(KernelId::kLegacy))
      .result.taps[0][static_cast<std::size_t>(row - 1)]
      .h;
}

TEST(Striped32Global, FeatureTuplesAcrossLaneEdgesAndIsas) {
  const std::vector<Index> widths = {3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 24, 32, 48, 64};
  Rng rng(8080);
  std::vector<TileCase> cases;
  for (const Index w : widths) {
    for (int feat = 0; feat < 4; ++feat) {
      const bool taps = feat & 1;
      const bool find = feat & 2;
      std::string name = "w";
      name += std::to_string(w);
      name += "_feat";
      name += std::to_string(feat);
      TileCase tc = make_case(rng, 1 + static_cast<Index>(rng.below(24)), w, 1 + feat % 4, false,
                              false, false, paper(), name);
      if (taps) tc.tap_cols = lane_edge_taps(tc);
      if (find) {
        // Rotate the probe target: the first cell, the last cell, absent.
        const Index rows = tc.r1 - tc.r0;
        const int which = static_cast<int>(w % 3);
        tc.find_value = which == 0   ? legacy_h_at(tc, 1, 1)
                        : which == 1 ? legacy_h_at(tc, rows, w)
                                     : Score{1000000};
      }
      cases.push_back(std::move(tc));
    }
  }
  const int forced = for_each_isa([&](const std::string& isa) {
    for (const TileCase& tc : cases) expect_striped32_exact(tc, tc.name + " / " + isa);
  });
  EXPECT_GE(forced, 1);
}

TEST(Striped32Global, ProbeReportsFirstCellHitAndAbsence) {
  Rng rng(8081);
  TileCase tc = make_case(rng, 20, 40, 1, false, false, false, paper(), "probe");
  const KernelVariant& striped = engine::kernel_info(KernelId::kStriped32Global);
  tc.find_value = legacy_h_at(tc, 1, 1);
  TileOutputs got = run_variant(tc, striped);
  EXPECT_TRUE(got.result.found);
  EXPECT_EQ(got.result.found_i, tc.r0 + 1);
  EXPECT_EQ(got.result.found_j, tc.c0 + 1);
  tc.find_value = Score{1000000};
  got = run_variant(tc, striped);
  EXPECT_FALSE(got.result.found);
  expect_striped32_exact(tc, "probe-absent");
}

// A probe whose first row-major hit is the last real column, the lane slot
// right before the single pad slot that w = 64t - 1 leaves for every lane
// count.
TEST(Striped32Global, ProbeHitInPadAdjacentLaneUnderEveryIsa) {
  Rng rng(8083);
  for (const Index w : {63, 191}) {
    TileCase tc = make_case(rng, 12, w, 1, false, false, false, paper(),
                            "pad-probe" + std::to_string(w));
    // Left-boundary H climbing 1000 per row makes each row's H the left
    // gap run — strictly falling along the row — above every earlier row's,
    // so each value occurs once and row 7's last column is its own first hit.
    for (Index i = 0; i <= tc.r1 - tc.r0; ++i) {
      tc.vbus_in[static_cast<std::size_t>(i)].h = static_cast<Score>(1000 * i);
    }
    tc.find_value = legacy_h_at(tc, 7, w);
    const TileOutputs legacy = run_variant(tc, engine::kernel_info(KernelId::kLegacy));
    ASSERT_TRUE(legacy.result.found) << tc.name;
    ASSERT_EQ(legacy.result.found_i, tc.r0 + 7) << tc.name;
    ASSERT_EQ(legacy.result.found_j, tc.c1) << tc.name;
    const int forced = for_each_isa([&](const std::string& isa) {
      const TileOutputs got = run_variant(tc, engine::kernel_info(KernelId::kStriped32Global));
      EXPECT_EQ(got.result.found_j, tc.c1) << tc.name << " / " << isa;
      expect_striped32_exact(tc, tc.name + " / " + isa);
    });
    EXPECT_GE(forced, 1);
  }
}

TEST(Striped32Global, EnvelopeAdmitsGenuineTilesOnly) {
  Rng rng(8082);
  const KernelVariant& striped = engine::kernel_info(KernelId::kStriped32Global);
  TileCase tc = make_case(rng, 12, 16, 1, false, true, true, paper(), "envelope");
  EXPECT_TRUE(variant_accepts(tc, striped));
  expect_striped32_exact(tc, "envelope");
  // Gap sentinels are admitted: the genuine H branch wins within one step.
  tc.hbus[3].gap = kNegInf;
  tc.vbus_in[2].gap = kNegInf - 50;
  EXPECT_TRUE(variant_accepts(tc, striped));
  expect_striped32_exact(tc, "gap-sentinels");
  // Sentinel H anywhere among the inputs, the corner included: scalar only.
  for (const int where : {0, 1, 2}) {
    TileCase bad = tc;
    if (where == 0) bad.vbus_in[0].h = kNegInf;
    if (where == 1) bad.vbus_in[5].h = kNegInf;
    if (where == 2) bad.hbus[16].h = kNegInf - 7;
    EXPECT_FALSE(variant_accepts(bad, striped)) << "sentinel H case " << where;
    EXPECT_TRUE(variant_accepts(bad, scalar_twin(bad)));
  }
  // The hbus corner (index 0) belongs to the left neighbour and is ignored.
  TileCase corner = tc;
  corner.hbus[0].h = kNegInf;
  EXPECT_TRUE(variant_accepts(corner, striped));
  // Narrow tiles are exact too: width is the selector's shape gate, not part
  // of the envelope. Best tracking and local mode are rejected.
  const TileCase narrow = make_case(rng, 12, 3, 1, false, true, true, paper(), "narrow");
  EXPECT_TRUE(variant_accepts(narrow, striped));
  expect_striped32_exact(narrow, "narrow");
  EXPECT_FALSE(variant_accepts(make_case(rng, 12, 32, 1, true, false, false, paper(), "best"),
                               striped));
  EXPECT_FALSE(variant_accepts(make_case(rng, 12, 32, 0, false, false, false, paper(), "local"),
                               striped));
  // The reachable-score bound: inputs near |kNegInf| / 2 are refused.
  TileCase huge = tc;
  huge.hbus[4].h = -(kNegInf / 2) - 100;
  EXPECT_FALSE(variant_accepts(huge, striped));
  huge.hbus[4].h = 1000000;
  EXPECT_TRUE(variant_accepts(huge, striped));
  expect_striped32_exact(huge, "large-genuine");
}

TEST(Striped32Global, FuzzAgainstLegacyAndScalar) {
  Rng rng(8083);
  const std::vector<scoring::Scheme> schemes = {paper(), scoring::Scheme{2, -1, 3, 1},
                                                scoring::Scheme{3, -2, 7, 2},
                                                scoring::Scheme{5, -4, 10, 1}};
  for (int iter = 0; iter < 150; ++iter) {
    const Index rows = 1 + static_cast<Index>(rng.below(50));
    const Index w = 1 + static_cast<Index>(rng.below(90));
    const int mode = 1 + static_cast<int>(rng.below(4));
    TileCase tc = make_case(rng, rows, w, mode, false, rng.chance(0.5), rng.chance(0.5),
                            schemes[iter % schemes.size()], "s32fuzz" + std::to_string(iter));
    expect_striped32_exact(tc, tc.name);
  }
}

/// Problem level: run_wavefront with automatic selection (striped32 wherever
/// admitted) against run_reference (taps) and a legacy-pinned run (taps and
/// probe), for every global start/end state and every (taps, find) tuple.
TEST(Striped32Global, ProblemLevelMatchesReferenceForEveryCellState) {
  const auto a = rand_seq(150, 6100);
  const auto b = rand_seq(170, 6101);
  const auto same_or_both_unreachable = [](const BusCell& x, const BusCell& y) {
    const auto eq = [](Score u, Score v) { return u == v || (is_neg_inf(u) && is_neg_inf(v)); };
    return eq(x.h, y.h) && eq(x.gap, y.gap);
  };
  for (const dp::CellState state : {dp::CellState::kH, dp::CellState::kE, dp::CellState::kF}) {
    for (const bool end : {false, true}) {
      engine::ProblemSpec spec;
      spec.a = a.bases();
      spec.b = b.bases();
      spec.grid = engine::GridSpec{3, 8, 4, 1};
      spec.recurrence = end ? Recurrence::global_end(state, paper())
                            : Recurrence::global_start(state, paper());
      std::map<Index, std::vector<BusCell>> taps;
      engine::Hooks hooks;
      hooks.tap_columns = {1, 57, 113, 170};
      hooks.on_tap = [&](Index col, Index, std::span<const BusCell> cells) {
        auto& out = taps[col];
        out.insert(out.end(), cells.begin(), cells.end());
        return engine::HookAction::kContinue;
      };
      const auto run_taps = [&](const engine::ProblemSpec& sp, const engine::Hooks& hk,
                                bool reference) {
        taps.clear();
        auto result = reference ? engine::run_reference(sp, hk) : engine::run_wavefront(sp, hk);
        return std::make_pair(result, taps);
      };
      const auto [ref, ref_taps] = run_taps(spec, hooks, true);
      // A probe target the sweep reaches mid-problem: H at vertex (100, 113).
      const Score target = ref_taps.at(113)[100].h;
      for (int feat = 0; feat < 4; ++feat) {
        const std::string label = std::string(end ? "end" : "start") +
                                  std::to_string(static_cast<int>(state)) + "_feat" +
                                  std::to_string(feat);
        engine::Hooks hk = hooks;
        if ((feat & 1) == 0) {
          hk.tap_columns.clear();
          hk.on_tap = nullptr;
        }
        if (feat & 2) hk.find_value = target;
        spec.kernel_override.clear();
        const auto [run, got_taps] = run_taps(spec, hk, false);
        spec.kernel_override = "legacy";
        const auto [legacy, legacy_taps] = run_taps(spec, hk, false);

        // A probe may stop inside the first strip, which an end-in-F sweep
        // (sentinel H on row 0) runs entirely scalar.
        if ((feat & 2) == 0) {
          EXPECT_GT(
              run.stats.kernels[static_cast<std::size_t>(KernelId::kStriped32Global)].tiles, 0)
              << label << ": " << engine::kernel_usage_summary(run.stats);
        }
        EXPECT_EQ(got_taps, legacy_taps) << label;
        EXPECT_EQ(run.found, legacy.found) << label;
        EXPECT_EQ(run.found_i, legacy.found_i) << label;
        EXPECT_EQ(run.found_j, legacy.found_j) << label;
        if (feat & 2) {
          EXPECT_TRUE(run.found) << label;
          EXPECT_LE(run.found_i, 100) << label;
        } else if (feat & 1) {
          ASSERT_EQ(got_taps.size(), ref_taps.size()) << label;
          for (const auto& [col, cells] : ref_taps) {
            const auto& entries = got_taps.at(col);
            ASSERT_EQ(entries.size(), cells.size()) << label << " tap " << col;
            for (std::size_t k = 0; k < cells.size(); ++k) {
              EXPECT_TRUE(same_or_both_unreachable(entries[k], cells[k]))
                  << label << " tap " << col << " entry " << k;
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// striped32-local+best: the striped sweep in local mode on int32 lanes takes
// the Stage-1 tiles past the int16 envelope. It must be byte-identical to
// legacy under every compiled ISA, admit exactly its envelope, and keep the
// scalar kernels' first-occurrence tie-break.
// ---------------------------------------------------------------------------

const KernelVariant& striped32_local() {
  return engine::kernel_info(KernelId::kStriped32LocalBest);
}

/// Lifts a local case's genuine bus values by `base` (sentinel gaps stay),
/// so the tile starts where a related pair's Stage 1 is after many rows.
void lift_bus(TileCase& tc, Score base) {
  for (auto* bus : {&tc.hbus, &tc.vbus_in}) {
    for (BusCell& cell : *bus) {
      cell.h += base;
      if (!is_neg_inf(cell.gap)) cell.gap += base;
    }
  }
}

TEST(Striped32Local, MatchesLegacyPastInt16UnderEveryIsa) {
  const std::vector<Index> widths = {3, 4, 5, 8, 9, 16, 17, 31, 33, 64, 65, 100};
  const std::vector<Score> bases = {28001, 40000, 250000, 1000000};
  const std::vector<scoring::Scheme> schemes = {paper(), scoring::Scheme{2, -1, 3, 1},
                                                scoring::Scheme{100, -300, 500, 200}};
  Rng rng(9090);
  std::vector<TileCase> cases;
  for (std::size_t k = 0; k < widths.size() * bases.size(); ++k) {
    const Index w = widths[k % widths.size()];
    TileCase tc = make_case(rng, 1 + static_cast<Index>(rng.below(40)), w, 0, true, false, false,
                            schemes[k % schemes.size()], "lift" + std::to_string(k));
    lift_bus(tc, bases[k / widths.size()]);
    cases.push_back(std::move(tc));
  }
  const KernelVariant* s16 = engine::find_kernel("striped16-local+best");
  ASSERT_NE(s16, nullptr);
  const int forced = for_each_isa([&](const std::string& isa) {
    for (const TileCase& tc : cases) {
      ASSERT_FALSE(variant_accepts(tc, *s16)) << tc.name;
      ASSERT_TRUE(variant_accepts(tc, striped32_local())) << tc.name;
      expect_identical(run_variant(tc, engine::kernel_info(KernelId::kLegacy)),
                       run_variant(tc, striped32_local()), tc.name + " / " + isa);
    }
  });
  EXPECT_GE(forced, 1);
}

TEST(Striped32Local, EnvelopeEdges) {
  Rng rng(9091);
  // Just past the int16 ceiling (see LaneEnvelope.Int16CeilingBoundary...):
  // striped16 refuses, the int32 lanes take the tile and stay exact.
  TileCase tc = make_case(rng, 24, 24, 0, true, false, false, paper(), "past-16");
  tc.hbus[5].h = 27977;
  EXPECT_FALSE(variant_accepts(tc, *engine::find_kernel("striped16-local+best")));
  ASSERT_TRUE(variant_accepts(tc, striped32_local()));
  const TileOutputs legacy = run_variant(tc, engine::kernel_info(KernelId::kLegacy));
  expect_identical(legacy, run_variant(tc, striped32_local()), "past-16");

  // Sentinel H anywhere among the inputs stays on v32, which reproduces the
  // scalar sentinel drift.
  for (const int where : {0, 1, 2}) {
    TileCase bad = tc;
    if (where == 0) bad.vbus_in[0].h = kNegInf;
    if (where == 1) bad.vbus_in[7].h = kNegInf;
    if (where == 2) bad.hbus[24].h = kNegInf - 3;
    EXPECT_FALSE(variant_accepts(bad, striped32_local())) << "sentinel H case " << where;
    EXPECT_EQ(auto_selected(bad), KernelId::kVec32LocalBest) << "sentinel H case " << where;
    expect_identical(run_variant(bad, engine::kernel_info(KernelId::kLegacy)),
                     run_variant(bad, engine::kernel_info(KernelId::kVec32LocalBest)),
                     "sentinel H / v32");
  }

  // Paper-scale scores (about 27 M) are admitted and exact.
  TileCase paper_scale = tc;
  lift_bus(paper_scale, 27000000);
  ASSERT_TRUE(variant_accepts(paper_scale, striped32_local()));
  expect_identical(run_variant(paper_scale, engine::kernel_info(KernelId::kLegacy)),
                   run_variant(paper_scale, striped32_local()), "paper-scale");

  // The reachable-score bound max|input| + step * (rows + w + lane pad) must
  // stay below |kNegInf| / 2: at the bound the tile is refused, one below it
  // is admitted and exact. The paper scheme's largest step is G_first = 5.
  const Score at_bound = static_cast<Score>(-(kNegInf / 2) -
                                            5 * (24 + 24 + engine::detail::kMaxStripedLanes));
  TileCase edge = tc;
  edge.hbus[5].h = at_bound;
  EXPECT_FALSE(variant_accepts(edge, striped32_local()));
  edge.hbus[5].h = at_bound - 1;
  ASSERT_TRUE(variant_accepts(edge, striped32_local()));
  expect_identical(run_variant(edge, engine::kernel_info(KernelId::kLegacy)),
                   run_variant(edge, striped32_local()), "bound-edge");

  // Local mode without taps or probe only; best tracking is the registry's.
  TileCase taps = tc;
  taps.tap_cols = {tc.c0 + 3};
  EXPECT_FALSE(variant_accepts(taps, striped32_local()));
  TileCase find = tc;
  find.find_value = 5;
  EXPECT_FALSE(variant_accepts(find, striped32_local()));
  TileCase no_best = tc;
  no_best.track_best = false;
  EXPECT_FALSE(variant_accepts(no_best, striped32_local()));
  EXPECT_FALSE(variant_accepts(make_case(rng, 12, 32, 1, false, false, false, paper(), "global"),
                               striped32_local()));
}

// A row whose maximum repeats across lanes reports its first (smallest-j)
// occurrence, and a later row that only ties the best does not replace it.
TEST(Striped32Local, RepeatedRowMaximaKeepFirstOccurrence) {
  for (const Index rows : {1, 6}) {
    TileCase tc;
    tc.name = "ties" + std::to_string(rows);
    tc.r0 = 3;
    tc.c0 = 2;
    tc.r1 = tc.r0 + rows;
    tc.c1 = tc.c0 + 64;
    tc.a = seq::Sequence("a", std::vector<seq::Base>(static_cast<std::size_t>(tc.r1), seq::kA));
    tc.b = seq::Sequence("b", std::vector<seq::Base>(static_cast<std::size_t>(tc.c1), seq::kA));
    tc.recurrence = Recurrence::local(paper());
    tc.track_best = true;
    // Row 1's diagonal feeds from hbus[j - 1]: H = 30001 on every column
    // j >= 38 and lower before it. Column 38 sits mid-segment for p = 4, 8
    // and 16 lanes, with every later lane tying it.
    tc.hbus.assign(65, BusCell{29000, kNegInf});
    for (Index j = 37; j <= 64; ++j) tc.hbus[static_cast<std::size_t>(j)] = BusCell{30000, kNegInf};
    tc.vbus_in.assign(static_cast<std::size_t>(rows) + 1, BusCell{29000, kNegInf});
    const TileOutputs legacy = run_variant(tc, engine::kernel_info(KernelId::kLegacy));
    if (rows == 1) {
      EXPECT_EQ(legacy.result.best.score, 30001);
      EXPECT_EQ(legacy.result.best.i, tc.r0 + 1);
      EXPECT_EQ(legacy.result.best.j, tc.c0 + 38);
    }
    for_each_isa([&](const std::string& isa) {
      expect_identical(legacy, run_variant(tc, striped32_local()), tc.name + " / " + isa);
    });
  }
}

TEST(Striped32Local, AutomaticSelectionTakesStage1TilesPastInt16) {
  Rng rng(9092);
  TileCase tc = make_case(rng, 64, 512, 0, true, false, false, paper(), "stage1");
  EXPECT_NE(auto_selected(tc), KernelId::kStriped32LocalBest);  // Inside int16: narrower lanes.
  lift_bus(tc, 30000);
  EXPECT_EQ(auto_selected(tc), KernelId::kStriped32LocalBest);
  lift_bus(tc, 5000000);
  EXPECT_EQ(auto_selected(tc), KernelId::kStriped32LocalBest);
}

}  // namespace
}  // namespace cudalign
