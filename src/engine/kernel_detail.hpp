// Internal seams of the kernel family (not part of the engine's public API).
//
// kernels_scalar.cpp, kernels_vector.cpp and the kernels_striped*.cpp
// backends implement the entry points declared here; kernel_registry.cpp
// wires them into the variant table. The tiny helpers keep the per-tile
// contract (bus sizes, result shape, corner conventions) in exactly one
// place so every variant inherits it.
#pragma once

#include <cstdint>
#include <optional>

#include "common/error.hpp"
#include "engine/kernels.hpp"

namespace cudalign::engine::detail {

/// Validates the job's bus geometry and returns a result sized for it (cells
/// count, tap buffers). Shared prologue of every kernel variant.
inline TileResult make_tile_result(const TileJob& job) {
  const Index w = job.c1 - job.c0;
  const Index rows = job.r1 - job.r0;
  CUDALIGN_ASSERT(w >= 0 && rows >= 0);
  CUDALIGN_ASSERT(static_cast<Index>(job.hbus.size()) == w + 1);
  CUDALIGN_ASSERT(static_cast<Index>(job.vbus_in.size()) == rows + 1);
  CUDALIGN_ASSERT(static_cast<Index>(job.vbus_out.size()) == rows + 1);
  TileResult result;
  result.cells = static_cast<WideScore>(w) * rows;
  result.taps.resize(job.tap_cols.size());
  for (auto& tap : result.taps) tap.resize(static_cast<std::size_t>(rows));
  return result;
}

// --- kernels_scalar.cpp ----------------------------------------------------

/// The seed's monolithic loop, preserved verbatim as fallback and benchmark
/// baseline ("legacy" in the registry).
TileResult run_legacy(const TileJob& job, TileScratch& scratch);

/// Specialized row sweep: query-profile inner loop, every feature resolved at
/// compile time. Exact for jobs whose traits match the instantiation.
template <bool kLocal, bool kBest, bool kTaps, bool kFind>
TileResult run_scalar(const TileJob& job, TileScratch& scratch);

// --- kernels_vector.cpp ----------------------------------------------------

/// Branch-free anti-diagonal sweep over LaneT lanes (int16_t or int32_t),
/// local mode only, no taps/probe. The int16_t instantiation is exact only
/// within the range vector16_can_run admits; int32_t is exact everywhere the
/// shape gate passes.
template <typename LaneT, bool kBest>
TileResult run_vector(const TileJob& job, TileScratch& scratch);

/// Shape/feature envelope shared by both lane widths (local, no taps, no
/// probe, non-empty tile).
[[nodiscard]] bool vector_can_run(const TileJob& job);

/// A narrow-lane exactness envelope: the value ranges a fixed-width lane
/// kernel admits. One precheck (lane_inputs_admit) serves every narrow lane
/// width — the 16-bit anti-diagonal kernel, and the striped 8-bit/16-bit
/// kernels — so the input checks are written exactly once.
struct LaneEnvelope {
  Score penalty_cap;  ///< Largest |penalty| and match score admitted.
  Score real_floor;   ///< Most negative genuine bus input admitted.
  /// Largest genuine bus input admitted, and the largest H a narrow kernel
  /// may publish: ceiling + penalty_cap stays below the lane maximum, so the
  /// first H past the ceiling is still computed exactly (DESIGN.md).
  Score ceiling;
};

/// int16 lane envelope (v16-local* and striped16-local*).
inline constexpr LaneEnvelope kLaneEnvelope16{4096, -4096, 28000};
/// int8 lane envelope (striped8-local*).
inline constexpr LaneEnvelope kLaneEnvelope8{16, -64, 100};

/// Input precheck shared by every narrow-lane kernel: penalties within the
/// cap and every genuine bus input within [env.real_floor, env.ceiling]
/// (sentinel H rejected outright — scalar sentinel drift is not
/// reproducible in narrow lanes; gap sentinels are fine, the genuine branch
/// wins within one step in local mode). Returns the largest H input when
/// the job is admitted. It bounds nothing the tile computes: the striped
/// kernels detect an H past the ceiling and report the tile overflowed, and
/// v16 adds a static reachable-score bound (vector16_can_run). O(w + rows).
[[nodiscard]] std::optional<Score> lane_inputs_admit(const TileJob& job, const LaneEnvelope& env);

/// vector_can_run, the 16-bit input precheck and the overflow-checked
/// reachable-score bound max_h + match * min(rows, w) <= ceiling: the
/// anti-diagonal sweep cannot detect an overflow, so it must rule one out
/// before running. O(w + rows).
[[nodiscard]] bool vector16_can_run(const TileJob& job);

/// Most lanes any striped backend has (AVX-512 int8): bounds a tile's pad.
inline constexpr Index kMaxStripedLanes = 64;

// --- kernels_striped.cpp / kernels_striped_avx2.cpp / _avx512.cpp --------

/// Farrar-striped row sweep with the lazy-F correction loop eliminated
/// (deterministic two-pass gap scan; see striped_core.hpp), in local mode.
/// LaneT is int8_t (saturating, kLaneEnvelope8), int16_t (kLaneEnvelope16)
/// or int32_t (plain arithmetic, striped32_local_can_run; best tracking
/// only). The narrow widths return TileResult::overflowed, having published
/// nothing to the horizontal bus, when an H passes their ceiling; run_tile
/// then re-runs the tile on wider lanes. Dispatches at runtime to the best
/// compiled ISA backend (generic / SSE2 / AVX2 / AVX-512; see
/// active_simd_isa() in kernel_registry.hpp).
template <typename LaneT, bool kBest>
TileResult run_striped(const TileJob& job, TileScratch& scratch);

/// The same sweep in global mode on int32 lanes (plain arithmetic, no zero
/// floor), dispatched to its taps/probe specialisation and then to the ISA.
TileResult run_striped32_global(const TileJob& job, TileScratch& scratch);

/// vector_can_run plus the 8-bit / 16-bit lane input prechecks.
[[nodiscard]] bool striped8_can_run(const TileJob& job);
[[nodiscard]] bool striped16_can_run(const TileJob& job);

/// The striped32-global envelope: a global job without best tracking, at
/// least one row, no sentinel H among its inputs (hbus[1..w] and
/// vbus_in[0..rows]), sentinel gaps above 2 * kNegInf, and a checked
/// reachable-score bound below |kNegInf| / 2 (see DESIGN.md). O(w + rows).
[[nodiscard]] bool striped32_global_can_run(const TileJob& job);

/// The striped32-local envelope: vector_can_run (local, no taps or probe,
/// non-empty) and the same int32 input and reachable-score checks as
/// striped32_global_can_run — sentinel H refused (those tiles stay on
/// v32-local*), every bound far below |kNegInf| so paper-scale scores fit.
/// Best tracking is the registry's concern. O(w + rows).
[[nodiscard]] bool striped32_local_can_run(const TileJob& job);

/// The striped tuples every ISA backend TU compiles, as (lane, local, best,
/// taps, find): the four narrow local (lane, best) pairs, int32 local+best,
/// and the four global int32 (taps, find) pairs. `PREFIX` is `template` in
/// the defining TU and `extern template` here.
#define CUDALIGN_STRIPED_ISA_INSTANTIATIONS(PREFIX, FN)                                        \
  PREFIX TileResult FN<std::int8_t, true, false, false, false>(const TileJob&, TileScratch&);  \
  PREFIX TileResult FN<std::int8_t, true, true, false, false>(const TileJob&, TileScratch&);   \
  PREFIX TileResult FN<std::int16_t, true, false, false, false>(const TileJob&, TileScratch&); \
  PREFIX TileResult FN<std::int16_t, true, true, false, false>(const TileJob&, TileScratch&);  \
  PREFIX TileResult FN<std::int32_t, true, true, false, false>(const TileJob&, TileScratch&);  \
  PREFIX TileResult FN<std::int32_t, false, false, false, false>(const TileJob&, TileScratch&); \
  PREFIX TileResult FN<std::int32_t, false, false, false, true>(const TileJob&, TileScratch&);  \
  PREFIX TileResult FN<std::int32_t, false, false, true, false>(const TileJob&, TileScratch&);  \
  PREFIX TileResult FN<std::int32_t, false, false, true, true>(const TileJob&, TileScratch&);

/// AVX2 entry points, compiled in the -mavx2 translation unit. Only called
/// when avx2_kernels_compiled() and the CPU supports AVX2.
template <typename LaneT, bool kLocal, bool kBest, bool kTaps, bool kFind>
TileResult run_striped_avx2(const TileJob& job, TileScratch& scratch);

/// True when kernels_striped_avx2.cpp was built with AVX2 code generation.
[[nodiscard]] bool avx2_kernels_compiled() noexcept;

/// AVX-512 entry points, compiled in the -mavx512bw translation unit. Only
/// called when avx512_kernels_compiled() and the CPU supports AVX-512BW.
template <typename LaneT, bool kLocal, bool kBest, bool kTaps, bool kFind>
TileResult run_striped_avx512(const TileJob& job, TileScratch& scratch);

/// True when kernels_striped_avx512.cpp was built with AVX-512BW codegen.
[[nodiscard]] bool avx512_kernels_compiled() noexcept;

extern template TileResult run_scalar<false, false, false, false>(const TileJob&, TileScratch&);
extern template TileResult run_scalar<false, false, false, true>(const TileJob&, TileScratch&);
extern template TileResult run_scalar<false, false, true, false>(const TileJob&, TileScratch&);
extern template TileResult run_scalar<false, false, true, true>(const TileJob&, TileScratch&);
extern template TileResult run_scalar<true, true, false, false>(const TileJob&, TileScratch&);

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
