// Kernel registry and dispatch: the seam between the executor and the tile
// kernel family.
//
// Every kernel variant is one row of the table in kernel_registry.cpp: a
// free function with the run_tile signature plus, as data, the envelope it
// is exact for — the feature tuples it computes and a lane rule bounding the
// values its lanes may hold; automatic selection gates every lane row by
// tile shape. One admits() evaluates any row against the tile's single
// scan_bus_inputs pass, so admission is O(1) per row and no kernel
// translation unit holds admission code. Dispatch walks the table in cost
// order and picks the cheapest row that admits the job — so the Stage-1 hot
// path (plain local, small scores) lands on a narrow striped sweep, a
// Stage-1 tile past the int16 window and a global tile of Stages 2-4 (probe
// included) on the int32 striped sweep, a global tile outside its
// envelope (narrow, or with sentinel H inputs) on the scalar global row
// sweep, and anything else on the legacy do-everything loop. All variants
// are bit-identical to run_reference; lane rules encode *exactness* (the
// anti-diagonal 16-bit kernel refuses tiles whose scores could overflow its
// lanes), while the shape gate is a speed heuristic. The narrow striped
// kernels are the one exception to "admitted means exact": their rule
// admits a tile by its inputs, the sweep detects an overflow, and run_tile
// re-runs such a tile on select_costlier_kernel's pick.
//
// Overrides: the CUDALIGN_KERNEL environment variable, or
// set_kernel_override(), pins a variant by name for the whole process.
// run_wavefront resolves the pin once per run and passes it to every tile as
// `forced`; select_kernel itself reads no global state. A pinned variant
// bypasses the shape gate but still only runs where admits() allows — jobs
// outside its envelope fall back to automatic selection, so an override can
// never produce wrong results.
//
// A future SIMD/GPU backend plugs in here: append an id to KernelId,
// implement the entry point (a new SIMD ISA is one lane-ops backend for
// engine/striped_core.hpp, as kernels_striped_avx2.cpp shows), and append a
// row to the table in kernel_registry.cpp — executor, stages and tests pick
// it up unchanged.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "engine/kernels.hpp"

namespace cudalign::engine {

/// The feature tuple a TileJob requests; a variant computes exactly the
/// tuples in its row.
struct KernelTraits {
  dp::AlignMode mode = dp::AlignMode::kLocal;
  bool best = false;
  bool find = false;

  [[nodiscard]] static KernelTraits of(const TileJob& job) noexcept {
    return KernelTraits{job.recurrence->mode, job.track_best, job.find_value.has_value()};
  }
  /// This tuple's bit in a row's tuple set: one of 8 (mode x best x find).
  [[nodiscard]] constexpr unsigned bit() const noexcept {
    const unsigned index =
        (mode == dp::AlignMode::kGlobal ? 4U : 0U) | (best ? 2U : 0U) | (find ? 1U : 0U);
    return 1U << index;
  }
  friend bool operator==(const KernelTraits&, const KernelTraits&) = default;
};

/// The values a row's lanes are exact for, checked on the tile's
/// scan_bus_inputs (DESIGN.md "Kernel admission"). Every rule but kNone
/// also needs a row, and in local mode a column, to sweep.
enum class LaneRule : std::uint8_t {
  /// Row sweeps in the scalar kernels' int32 arithmetic: any tile, and the
  /// one rule the shape gate does not apply to.
  kNone,
  /// int32 lanes that keep kNegInf and its drift, so the scalar kernels'
  /// arithmetic: any input.
  kInt32Drift,
  /// detail::kInt8Window / kInt16Window, no sentinel H; the sweep detects
  /// an overflow.
  kInt8,
  kInt16,
  /// The int16 window plus max_h + match * min(rows, w) <= its ceiling.
  kInt16Reach,
  /// max|input| + step * (rows + w + kMaxStripedLanes) < |kNegInf| / 2, no
  /// sentinel H, sentinel gaps at or above 2 * kNegInf.
  kInt32,
};

/// The automatic-selection shape gate: a lane row (lanes != kNone) is picked
/// automatically only for tiles at least this wide and this tall, where its
/// lanes fill. It is a speed heuristic, not a correctness bound, so pins
/// bypass it.
inline constexpr Index kShapeGateMinWidth = 16;
inline constexpr Index kShapeGateMinRows = 8;

/// One registry row: a tile kernel and, as data, the envelope it is exact
/// for.
struct KernelVariant {
  KernelId id = KernelId::kLegacy;
  const char* name = "";  ///< Stable name for CUDALIGN_KERNEL and stats output.
  int cost = 0;           ///< Selection preference; lower wins among eligible variants.
  unsigned tuples = 0;               ///< KernelTraits::bit() of each tuple it computes.
  LaneRule lanes = LaneRule::kNone;  ///< The values its lanes are exact for.
  TileResult (*run)(const TileJob& job, TileScratch& scratch) = nullptr;
};

/// True if `variant` computes `job`, whose bus inputs scan to `in`, exactly:
/// the job's feature tuple is in the row and its inputs pass the row's lane
/// rule. The shape gate is selection's concern, not this. O(1).
[[nodiscard]] bool admits(const KernelVariant& variant, const TileJob& job, const BusInputs& in);

/// All registered variants, in registry (not cost) order.
[[nodiscard]] std::span<const KernelVariant> kernel_registry() noexcept;

/// Looks up a variant by name; nullptr if unknown.
[[nodiscard]] const KernelVariant* find_kernel(std::string_view name) noexcept;

/// Metadata for a kernel id (valid for any id < kCount).
[[nodiscard]] const KernelVariant& kernel_info(KernelId id) noexcept;

/// Picks the variant that runs `job`, whose bus inputs scan to `in`:
/// `forced` when non-null and admitted, otherwise the cheapest variant in
/// automatic cost order that is admitted (a lane row only on a tile that
/// passes the shape gate). The process-wide pin only applies through
/// `forced` (run_wavefront passes it).
[[nodiscard]] const KernelVariant& select_kernel(const TileJob& job, const BusInputs& in,
                                                 const KernelVariant* forced = nullptr);

/// The cheapest eligible variant strictly costlier than `overflowed`, in
/// automatic cost order: run_tile's re-selection after a narrow kernel
/// reported TileResult::overflowed, on the same scan. Legacy, the costliest,
/// accepts any job.
[[nodiscard]] const KernelVariant& select_costlier_kernel(const TileJob& job,
                                                          const BusInputs& in,
                                                          const KernelVariant& overflowed);

/// Sets the process-wide override by name (empty string clears it). Throws
/// Error for an unknown name. Thread-safe; takes effect for subsequent
/// run_wavefront calls.
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
/// Called once per tile: after the first call the read takes no lock.
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
