// Internal seams of the kernel family (not part of the engine's public API).
//
// kernels_scalar.cpp and kernels_vector.cpp implement the entry points
// declared here; kernel_registry.cpp wires them into the variant table. The
// tiny helpers keep the per-tile contract (bus sizes, result shape, corner
// conventions) in exactly one place so every variant inherits it.
#pragma once

#include <cstdint>

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
/// kernel admits. One precheck shape (lane_envelope_admits) serves every
/// narrow lane width — the 16-bit anti-diagonal kernel, and the striped
/// 8-bit/16-bit kernels — so the checked-arithmetic reachable-score bound is
/// written exactly once.
struct LaneEnvelope {
  Score penalty_cap;  ///< Largest |penalty| and match score admitted.
  Score real_floor;   ///< Most negative genuine bus input admitted.
  Score ceiling;      ///< Reachable-score bound (+match still fits the lanes).
};

/// int16 lane envelope (v16-local* and striped16-local*).
inline constexpr LaneEnvelope kLaneEnvelope16{4096, -4096, 28000};
/// int8 lane envelope (striped8-local*): ceiling + penalty_cap stays below
/// INT8_MAX, so one more match can never saturate a genuine score.
inline constexpr LaneEnvelope kLaneEnvelope8{16, -64, 100};

/// Range precheck shared by every narrow-lane kernel: penalties within the
/// cap, every genuine bus input representable (sentinel H rejected outright —
/// scalar sentinel drift is not reproducible in narrow lanes; gap sentinels
/// are fine, the genuine branch wins within one step in local mode), and the
/// overflow-checked reachable-score bound max_h + match * max(rows, w) within
/// env.ceiling. O(w + rows).
[[nodiscard]] bool lane_envelope_admits(const TileJob& job, const LaneEnvelope& env);

/// vector_can_run plus the 16-bit range precheck: every input bus value
/// representable and no reachable score can leave the lanes. O(w + rows).
[[nodiscard]] bool vector16_can_run(const TileJob& job);

// --- kernels_striped.cpp / kernels_striped_avx2.cpp ------------------------

/// Farrar-striped row sweep with the lazy-F correction loop eliminated
/// (deterministic two-pass gap scan; see striped_core.hpp). LaneT is int8_t
/// (saturating, kLaneEnvelope8) or int16_t (kLaneEnvelope16). Dispatches at
/// runtime to the best compiled ISA backend (generic / SSE2 / AVX2; see
/// active_simd_isa() in kernel_registry.hpp).
template <typename LaneT, bool kBest>
TileResult run_striped(const TileJob& job, TileScratch& scratch);

/// vector_can_run plus the 8-bit / 16-bit lane envelope prechecks.
[[nodiscard]] bool striped8_can_run(const TileJob& job);
[[nodiscard]] bool striped16_can_run(const TileJob& job);

/// AVX2 entry points, compiled in the -mavx2 translation unit. Only called
/// when avx2_kernels_compiled() and the CPU supports AVX2.
template <typename LaneT, bool kBest>
TileResult run_striped_avx2(const TileJob& job, TileScratch& scratch);

/// True when kernels_striped_avx2.cpp was built with AVX2 code generation.
[[nodiscard]] bool avx2_kernels_compiled() noexcept;

/// AVX-512 entry points, compiled in the -mavx512bw translation unit. Only
/// called when avx512_kernels_compiled() and the CPU supports AVX-512BW.
template <typename LaneT, bool kBest>
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

extern template TileResult run_striped_avx2<std::int8_t, false>(const TileJob&, TileScratch&);
extern template TileResult run_striped_avx2<std::int8_t, true>(const TileJob&, TileScratch&);
extern template TileResult run_striped_avx2<std::int16_t, false>(const TileJob&, TileScratch&);
extern template TileResult run_striped_avx2<std::int16_t, true>(const TileJob&, TileScratch&);

extern template TileResult run_striped_avx512<std::int8_t, false>(const TileJob&, TileScratch&);
extern template TileResult run_striped_avx512<std::int8_t, true>(const TileJob&, TileScratch&);
extern template TileResult run_striped_avx512<std::int16_t, false>(const TileJob&, TileScratch&);
extern template TileResult run_striped_avx512<std::int16_t, true>(const TileJob&, TileScratch&);

}  // namespace cudalign::engine::detail
