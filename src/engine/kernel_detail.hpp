// Internal seams of the kernel family (not part of the engine's public API).
//
// kernels_scalar.cpp, kernels_vector.cpp and the kernels_striped*.cpp
// backends implement the entry points declared here and hold no admission
// code: kernel_registry.cpp wires them into the variant table, whose rows
// state each kernel's envelope and whose admits() checks it. The narrow lane
// windows below are the one piece of it the sweeps read too. The tiny
// helpers keep the per-tile contract (bus sizes, result shape, corner
// conventions) in exactly one place so every variant inherits it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>

#include "common/error.hpp"
#include "engine/kernels.hpp"

namespace cudalign::engine::detail {

/// Validates the job's bus geometry and returns a result carrying its cells
/// count. Shared prologue of every kernel variant.
inline TileResult make_tile_result(const TileJob& job) {
  const Index w = job.c1 - job.c0;
  const Index rows = job.r1 - job.r0;
  CUDALIGN_ASSERT(w >= 0 && rows >= 0);
  CUDALIGN_ASSERT(static_cast<Index>(job.hbus.size()) == w + 1);
  CUDALIGN_ASSERT(static_cast<Index>(job.vbus_in.size()) == rows + 1);
  CUDALIGN_ASSERT(static_cast<Index>(job.vbus_out.size()) == rows + 1);
  TileResult result;
  result.cells = static_cast<WideScore>(w) * rows;
  return result;
}

// --- kernels_scalar.cpp ----------------------------------------------------

/// The seed's monolithic loop, preserved verbatim as fallback and benchmark
/// baseline ("legacy" in the registry).
TileResult run_legacy(const TileJob& job, TileScratch& scratch);

/// Global row sweep with a query-profile inner loop, for the tiles lane rows
/// do not take: narrow tiles and the executor's peeled sentinel lines. The
/// probe is a template parameter. Exact for global jobs without best
/// tracking whose probe matches kFind.
template <bool kFind>
TileResult run_scalar(const TileJob& job, TileScratch& scratch);

// --- kernels_vector.cpp ----------------------------------------------------

/// Branch-free anti-diagonal sweep over LaneT lanes (int16_t or int32_t),
/// local mode only, no probe. The int16_t instantiation is exact only
/// within its registry row's kInt16Reach rule; int32_t is exact on every
/// non-empty local tile.
template <typename LaneT, bool kBest>
TileResult run_vector(const TileJob& job, TileScratch& scratch);

/// A narrow lane's exactness window (DESIGN.md "Narrow-lane overflow
/// contract"). admits() takes a tile whose penalties are at most `cap` and
/// whose genuine bus inputs lie in [floor, ceiling], with no sentinel H.
/// `ceiling` is also the largest H a narrow kernel may publish: ceiling +
/// cap stays below the lane maximum, so the first H past the ceiling is
/// still computed exactly, and the striped sweeps report it as an overflow.
struct LaneWindow {
  Score cap;
  Score floor;
  Score ceiling;
};

/// int8 lanes (striped8-local*).
inline constexpr LaneWindow kInt8Window{16, -64, 100};
/// int16 lanes (striped16-local* and v16-local*).
inline constexpr LaneWindow kInt16Window{4096, -4096, 28000};

/// The loop behind scan_bus_inputs. Each ISA translation unit instantiates
/// it with a tag of its own, so the copies compiled for different ISAs keep
/// distinct symbols; scan_bus_inputs picks one by active_simd_isa(). Local
/// accumulators and mask arithmetic (`keep ? v : other` feeding a min/max
/// becomes a conditional reduction GCC 12 does not vectorize) keep every
/// reduction vectorized.
template <typename IsaTag>
BusInputs scan_bus_inputs_for(const TileJob& job) noexcept {
  constexpr Score kMax = std::numeric_limits<Score>::max();
  constexpr Score kMin = std::numeric_limits<Score>::min();
  const auto keep_or = [](bool keep, Score v, Score other) {
    const Score mask = -static_cast<Score>(keep);
    return (v & mask) | (other & ~mask);
  };
  BusInputs in;
  const auto fold = [&in, &keep_or](std::span<const BusCell> cells) {
    Score hl = in.h_lo, hh = in.h_hi, gl = in.gap_lo, gh = in.gap_hi, gf = in.gap_floor;
    for (const BusCell& cell : cells) {
      const bool real_gap = !is_neg_inf(cell.gap);
      hl = std::min(hl, cell.h);
      hh = std::max(hh, cell.h);
      gl = std::min(gl, keep_or(real_gap, cell.gap, kMax));
      gh = std::max(gh, keep_or(real_gap, cell.gap, kMin));
      gf = std::min(gf, cell.gap);
    }
    in = BusInputs{hl, hh, gl, gh, gf};
  };
  if (!job.hbus.empty()) fold(job.hbus.subspan(1));
  fold(job.vbus_in);
  return in;
}

/// scan_bus_inputs_for compiled in kernels_striped_avx2.cpp and
/// kernels_striped_avx512.cpp; called only where that striped backend may
/// run (active_simd_isa()).
[[nodiscard]] BusInputs scan_bus_inputs_avx2(const TileJob& job) noexcept;
[[nodiscard]] BusInputs scan_bus_inputs_avx512(const TileJob& job) noexcept;

/// Most lanes any striped backend has (AVX-512 int8): bounds a tile's pad.
inline constexpr Index kMaxStripedLanes = 64;

// --- kernels_striped.cpp / kernels_striped_avx2.cpp / _avx512.cpp --------

/// Farrar-striped row sweep with the lazy-F correction loop eliminated
/// (deterministic two-pass gap scan; see striped_core.hpp), in local mode.
/// LaneT is int8_t (saturating, kInt8Window), int16_t (kInt16Window) or
/// int32_t (plain arithmetic, the registry's kInt32 rule; best tracking
/// only). The narrow widths return TileResult::overflowed, having published
/// nothing to the horizontal bus, when an H passes their ceiling; run_tile
/// then re-runs the tile on wider lanes. Dispatches at runtime to the best
/// compiled ISA backend (generic / SSE2 / AVX2 / AVX-512; see
/// active_simd_isa() in kernel_registry.hpp).
template <typename LaneT, bool kBest>
TileResult run_striped(const TileJob& job, TileScratch& scratch);

/// The same sweep in global mode on int32 lanes (plain arithmetic, no zero
/// floor, the kInt32 rule), dispatched to its probe specialisation and then
/// to the ISA.
TileResult run_striped32_global(const TileJob& job, TileScratch& scratch);

/// The striped tuples every ISA backend TU compiles, as (lane, local, best,
/// find): the four narrow local (lane, best) pairs, int32 local+best, and
/// the two global int32 find values. `PREFIX` is `template` in the defining
/// TU and `extern template` here.
#define CUDALIGN_STRIPED_ISA_INSTANTIATIONS(PREFIX, FN)                                 \
  PREFIX TileResult FN<std::int8_t, true, false, false>(const TileJob&, TileScratch&);  \
  PREFIX TileResult FN<std::int8_t, true, true, false>(const TileJob&, TileScratch&);   \
  PREFIX TileResult FN<std::int16_t, true, false, false>(const TileJob&, TileScratch&); \
  PREFIX TileResult FN<std::int16_t, true, true, false>(const TileJob&, TileScratch&);  \
  PREFIX TileResult FN<std::int32_t, true, true, false>(const TileJob&, TileScratch&);  \
  PREFIX TileResult FN<std::int32_t, false, false, false>(const TileJob&, TileScratch&); \
  PREFIX TileResult FN<std::int32_t, false, false, true>(const TileJob&, TileScratch&);

/// AVX2 entry points, compiled in the -mavx2 translation unit. Only called
/// when avx2_kernels_compiled() and the CPU supports AVX2.
template <typename LaneT, bool kLocal, bool kBest, bool kFind>
TileResult run_striped_avx2(const TileJob& job, TileScratch& scratch);

/// True when kernels_striped_avx2.cpp was built with AVX2 code generation.
[[nodiscard]] bool avx2_kernels_compiled() noexcept;

/// AVX-512 entry points, compiled in the -mavx512bw translation unit. Only
/// called when avx512_kernels_compiled() and the CPU supports AVX-512BW.
template <typename LaneT, bool kLocal, bool kBest, bool kFind>
TileResult run_striped_avx512(const TileJob& job, TileScratch& scratch);

/// True when kernels_striped_avx512.cpp was built with AVX-512BW codegen.
[[nodiscard]] bool avx512_kernels_compiled() noexcept;

extern template TileResult run_scalar<false>(const TileJob&, TileScratch&);
extern template TileResult run_scalar<true>(const TileJob&, TileScratch&);

extern template TileResult run_vector<std::int16_t, false>(const TileJob&, TileScratch&);
extern template TileResult run_vector<std::int16_t, true>(const TileJob&, TileScratch&);
extern template TileResult run_vector<std::int32_t, false>(const TileJob&, TileScratch&);
extern template TileResult run_vector<std::int32_t, true>(const TileJob&, TileScratch&);

extern template TileResult run_striped<std::int8_t, false>(const TileJob&, TileScratch&);
extern template TileResult run_striped<std::int8_t, true>(const TileJob&, TileScratch&);
extern template TileResult run_striped<std::int16_t, false>(const TileJob&, TileScratch&);
extern template TileResult run_striped<std::int16_t, true>(const TileJob&, TileScratch&);
extern template TileResult run_striped<std::int32_t, true>(const TileJob&, TileScratch&);

CUDALIGN_STRIPED_ISA_INSTANTIATIONS(extern template, run_striped_avx2)
CUDALIGN_STRIPED_ISA_INSTANTIATIONS(extern template, run_striped_avx512)

}  // namespace cudalign::engine::detail
