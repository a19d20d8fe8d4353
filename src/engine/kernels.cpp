// Recurrence boundary math, the per-tile admission scan and the run_tile
// dispatch shim. The kernel implementations themselves live in
// kernels_scalar.cpp / kernels_vector.cpp / kernels_striped*.cpp and are
// selected through kernel_registry.hpp.
#include "engine/kernels.hpp"

#include <algorithm>

#include "check/checked.hpp"
#include "check/contracts.hpp"
#include "engine/kernel_detail.hpp"
#include "engine/kernel_registry.hpp"

namespace cudalign::engine {

namespace {
using dp::AlignMode;

/// Boundary gap-run value after `len` >= 1 gap steps from a corner: either
/// the corner's gap state continues (len * G_ext) or a fresh run opens from
/// the corner's H (G_first + (len-1) * G_ext); -inf absorbs.
Score boundary_run(Score corner_gap, Score corner_h, Index len, const scoring::Scheme& s) {
  // Gap-run math in WideScore with overflow checks: a boundary value decided
  // by wrapped arithmetic would poison every cell derived from it.
  const WideScore ext = check::checked_mul(len, WideScore{s.gap_ext});
  const Score via_cont =
      is_neg_inf(corner_gap)
          ? kNegInf
          : check::checked_cast<Score>(check::checked_sub(WideScore{corner_gap}, ext));
  const WideScore open_ext =
      check::checked_mul(check::checked_sub(len, Index{1}), WideScore{s.gap_ext});
  const Score via_open =
      is_neg_inf(corner_h)
          ? kNegInf
          : check::checked_cast<Score>(check::checked_sub(
                check::checked_sub(WideScore{corner_h}, WideScore{s.gap_first}), open_ext));
  return std::max(via_cont, via_open);
}

}  // namespace

BusCell Recurrence::top_boundary(Index j) const {
  if (mode == AlignMode::kLocal) return BusCell{0, kNegInf};
  if (j == 0) return BusCell{corner.h, corner.f};
  // Global: H(0, j) equals the boundary E run; F(0, j) is unreachable.
  return BusCell{boundary_run(corner.e, corner.h, j, scheme), kNegInf};
}

Score Recurrence::top_boundary_e(Index j) const {
  if (j == 0) return corner.e;
  if (mode == AlignMode::kLocal) {
    // E(0, j) = max(E(0, j-1) - G_ext, H(0, j-1) - G_first) with H(0, *) = 0:
    // the open branch always wins, so E(0, j) = -G_first for every j >= 1.
    return static_cast<Score>(-scheme.gap_first);
  }
  return boundary_run(corner.e, corner.h, j, scheme);
}

Score Recurrence::left_boundary_f(Index i) const {
  if (i == 0) return corner.f;
  if (mode == AlignMode::kLocal) {
    // Symmetric to top_boundary_e: F(i, 0) = -G_first for every i >= 1.
    return static_cast<Score>(-scheme.gap_first);
  }
  return boundary_run(corner.f, corner.h, i, scheme);
}

BusCell Recurrence::left_boundary(Index i) const {
  if (mode == AlignMode::kLocal) return BusCell{0, kNegInf};
  if (i == 0) return BusCell{corner.h, corner.e};
  // The vertical bus carries (H, E); E is unreachable on column 0 and
  // H(i, 0) equals the boundary F run.
  return BusCell{boundary_run(corner.f, corner.h, i, scheme), kNegInf};
}

BusInputs scan_bus_inputs(const TileJob& job) noexcept {
  // The pass is all 32-bit min/max, which SSE2 lacks: run it in the widest
  // ISA translation unit the striped kernels may use.
  switch (active_simd_isa()) {
    case SimdIsa::kAvx512:
      return detail::scan_bus_inputs_avx512(job);
    case SimdIsa::kAvx2:
      return detail::scan_bus_inputs_avx2(job);
    case SimdIsa::kGeneric:
    case SimdIsa::kSse2:
      break;
  }
  struct BaselineIsa {};
  return detail::scan_bus_inputs_for<BaselineIsa>(job);
}

TileResult run_tile(const TileJob& job, TileScratch& scratch, const KernelVariant* forced) {
  return run_tile(job, scan_bus_inputs(job), scratch, forced);
}

TileResult run_tile(const TileJob& job, const BusInputs& in, TileScratch& scratch,
                    const KernelVariant* forced) {
  // One admission pass serves the selection and every re-selection.
  const KernelVariant* kernel = &select_kernel(job, in, forced);
  bool rerun = false;
  for (;;) {
    // Dispatch contract: whatever won selection (forced, automatic or a
    // re-selection) must be exact for this job — running outside the
    // envelope is the silent score-corruption path the registry exists to
    // prevent.
    CUDALIGN_DCHECK(admits(*kernel, job, in), "selected kernel '", kernel->name,
                    "' cannot run this job");
    TileResult result = kernel->run(job, scratch);
    if (!result.overflowed) {
      result.kernel = kernel->id;
      result.rerun = rerun;
      return result;
    }
    // Narrow lanes passed their ceiling: nothing reached the horizontal bus,
    // so the tile re-runs from its untouched inputs on wider lanes. Each
    // re-selection is strictly costlier, and legacy never overflows.
    kernel = &select_costlier_kernel(job, in, *kernel);
    rerun = true;
  }
}

}  // namespace cudalign::engine
