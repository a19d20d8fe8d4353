// Kernel registry and dispatch: the seam between the executor and the tile
// kernel family.
//
// Every kernel variant is a free function with the run_tile signature plus a
// `can_run` predicate describing the (mode, feature, value-range) envelope it
// is exact for. Dispatch walks the registry in cost order and picks the
// cheapest variant whose predicate accepts the job — so the Stage-1 hot path
// (plain local, small scores) lands on a narrow striped sweep, a Stage-1 tile
// past the int16 envelope and a global tile of Stages 2-4 (taps and probe
// included) on the int32 striped sweep, a global tile outside its envelope
// (narrow, or with sentinel H inputs) on its specialized scalar row sweep,
// and anything else on the legacy do-everything loop. All variants are
// bit-identical to run_reference; predicates encode *exactness* (e.g. the
// 16-bit kernel rejects tiles whose scores could overflow its lanes), while
// size heuristics live in the selector.
//
// Overrides: the CUDALIGN_KERNEL environment variable, or
// set_kernel_override() / ProblemSpec::kernel_override, pins a variant by
// name. A pinned variant still only runs where its predicate allows — jobs
// outside its envelope fall back to automatic selection, so an override can
// never produce wrong results.
//
// A future SIMD/GPU backend plugs in here: append an id to KernelId,
// implement the entry point (a new SIMD ISA is one lane-ops backend for
// engine/striped_core.hpp, as kernels_striped_avx2.cpp shows), and append a
// row to the table in kernel_registry.cpp — executor, stages and tests pick
// it up unchanged.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "engine/kernels.hpp"

namespace cudalign::engine {

/// The feature set a TileJob requests; used for exact-match selection.
struct KernelTraits {
  dp::AlignMode mode = dp::AlignMode::kLocal;
  bool best = false;
  bool taps = false;
  bool find = false;

  [[nodiscard]] static KernelTraits of(const TileJob& job) noexcept {
    return KernelTraits{job.recurrence->mode, job.track_best, !job.tap_cols.empty(),
                        job.find_value.has_value()};
  }
  friend bool operator==(const KernelTraits&, const KernelTraits&) = default;
};

struct KernelVariant {
  KernelId id = KernelId::kLegacy;
  const char* name = "";  ///< Stable name for CUDALIGN_KERNEL and stats output.
  int cost = 0;           ///< Selection preference; lower wins among eligible variants.
  /// True if the variant computes this job exactly (mode/features/value range).
  bool (*can_run)(const TileJob& job) = nullptr;
  TileResult (*run)(const TileJob& job, TileScratch& scratch) = nullptr;
};

/// All registered variants, in registry (not cost) order.
[[nodiscard]] std::span<const KernelVariant> kernel_registry() noexcept;

/// Looks up a variant by name; nullptr if unknown.
[[nodiscard]] const KernelVariant* find_kernel(std::string_view name) noexcept;

/// Metadata for a kernel id (valid for any id < kCount).
[[nodiscard]] const KernelVariant& kernel_info(KernelId id) noexcept;

/// Picks the cheapest variant that can run `job`. `forced` (when non-null and
/// eligible) wins; otherwise the process-wide override (CUDALIGN_KERNEL env,
/// or set_kernel_override) is tried, then the automatic cost order.
[[nodiscard]] const KernelVariant& select_kernel(const TileJob& job,
                                                 const KernelVariant* forced = nullptr);

/// Sets the process-wide override by name (empty string clears it). Throws
/// Error for an unknown name. Thread-safe; takes effect for subsequent tiles.
void set_kernel_override(std::string_view name);

/// The active process-wide override, or nullptr (reflects CUDALIGN_KERNEL on
/// first use unless set_kernel_override was called). An *unknown* name in
/// CUDALIGN_KERNEL terminates the process with exit code 2 at first use,
/// printing the valid names — a misspelled pin must never silently fall back
/// to automatic selection (the run would silently measure the wrong kernel).
[[nodiscard]] const KernelVariant* kernel_override() noexcept;

/// Comma-separated list of every registered kernel name (for error messages
/// and --help output).
[[nodiscard]] std::string kernel_names_list();

/// Test hook: drops the cached override state and re-reads CUDALIGN_KERNEL as
/// if the process had just started (including the unknown-name fail-fast).
void reload_kernel_override_from_env();

/// SIMD instruction sets the striped kernels can dispatch to. kGeneric is the
/// portable scalar emulation of the lane ops (bit-identical by construction);
/// kSse2 / kAvx2 / kAvx512 are only selectable where compiled in and
/// CPU-supported (kAvx512 means AVX-512BW: the striped lane ops need the
/// byte/word saturating arithmetic).
enum class SimdIsa : std::uint8_t { kGeneric, kSse2, kAvx2, kAvx512 };

/// The ISA the striped kernels currently dispatch to: the best available one,
/// unless CUDALIGN_SIMD (auto / generic / sse2 / avx2 / avx512) or
/// set_simd_isa_override() forces a baseline. An unknown CUDALIGN_SIMD value
/// terminates the process with exit code 2 at first use, like CUDALIGN_KERNEL.
[[nodiscard]] SimdIsa active_simd_isa() noexcept;

/// Forces the striped kernels onto `isa` ("auto" via clear_simd_isa_override).
/// Throws Error if the ISA is not compiled in / not supported by this CPU.
/// Thread-safe; used by tests to pin the SSE2/generic baselines on AVX2 hosts.
void set_simd_isa_override(SimdIsa isa);
void clear_simd_isa_override() noexcept;

/// Stable lowercase name of an ISA ("generic", "sse2", "avx2", "avx512").
[[nodiscard]] std::string_view simd_isa_name(SimdIsa isa) noexcept;

/// Test hook: drops the cached ISA state and re-reads CUDALIGN_SIMD as if the
/// process had just started (including the unknown-value fail-fast).
void reload_simd_isa_from_env();

}  // namespace cudalign::engine
