// Tile kernels: the per-block DP computation of the wavefront engine.
//
// A tile covers DP cells rows (r0, r1] x cols (c0, c1]. Its inputs are the
// buses: the horizontal bus holds (H, F) for the row-r0 vertices of its
// columns (written by the tile above), the vertical bus holds (H, E) for the
// column-c0 vertices of its rows (written by the tile to the left). It
// updates the horizontal bus in place to the row-r1 values and emits a fresh
// vertical-bus segment for column c1 — the paper's "rectified vertical bus"
// (§IV-C2): the true last-column values, not a trailing internal diagonal.
// The last chunk's segment is the problem's last column, which the executor
// hands to the goal-based matching of Stages 2-4 (Hooks::on_tap) as is.
//
// On top of the plain DP the kernel supports the probes the stages need:
//   * local-best tracking (Stage 1),
//   * a value probe — report the first cell whose H equals a target (Stage
//     2's start-point detection).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "dp/dp_common.hpp"
#include "dp/gotoh.hpp"
#include "scoring/profile.hpp"
#include "scoring/scoring.hpp"
#include "seq/sequence.hpp"

namespace cudalign::engine {

/// Identity of the kernel variant that computed a tile. The registry in
/// kernel_registry.hpp maps each id to a name, a feature predicate and an
/// entry point; RunStats tallies tiles/cells per id so benchmarks and tests
/// can see exactly which code path ran.
enum class KernelId : std::uint8_t {
  kLegacy = 0,        ///< The original do-everything scalar loop (fallback + bench baseline).
  kScalarGlobal,      ///< Global row sweep (query-profile inner loop) ...
  kScalarGlobalTapsFind,  ///< ... and the same sweep with the value probe.
  kVec16Local,        ///< Branch-free anti-diagonal sweep, 16-bit lanes.
  kVec16LocalBest,
  kVec32Local,        ///< Branch-free anti-diagonal sweep, 32-bit lanes.
  kVec32LocalBest,
  kStriped8Local,     ///< Farrar-striped row sweep, 8-bit saturating lanes.
  kStriped8LocalBest,
  kStriped16Local,    ///< Farrar-striped row sweep, 16-bit lanes.
  kStriped16LocalBest,
  kStriped32Global,   ///< Farrar-striped row sweep, global mode, 32-bit lanes (probe or not).
  kStriped32LocalBest,  ///< Farrar-striped row sweep, local mode, 32-bit lanes (past int16).
  kCount,
};

inline constexpr std::size_t kKernelIdCount = static_cast<std::size_t>(KernelId::kCount);

/// One bus entry. The horizontal bus stores gap = F (a row is crossed by
/// diagonal or vertical edges); the vertical bus stores gap = E (a column is
/// crossed by diagonal or horizontal edges). This is why the paper's special
/// rows persist exactly "the elements of matrices H and F" (§IV-B).
struct BusCell {
  Score h = kNegInf;
  Score gap = kNegInf;

  friend bool operator==(const BusCell&, const BusCell&) = default;
};

/// Recurrence + boundary flavour shared by kernel and executor. The corner
/// seed distinguishes forward sub-problems (start_corner: §IV-A gap-open
/// discount) from reverse sweeps (end_corner: hard arrival-state constraint);
/// see dp_common.hpp.
struct Recurrence {
  dp::AlignMode mode = dp::AlignMode::kLocal;
  dp::CellHEF corner = dp::start_corner(dp::CellState::kH);  ///< kGlobal only.
  scoring::Scheme scheme;

  /// Stage-1 style local Smith-Waterman.
  [[nodiscard]] static Recurrence local(const scoring::Scheme& scheme) {
    return Recurrence{dp::AlignMode::kLocal, dp::CellHEF{0, kNegInf, kNegInf}, scheme};
  }
  /// Forward global sub-problem entering in `start` (discounted gap run).
  [[nodiscard]] static Recurrence global_start(dp::CellState start,
                                               const scoring::Scheme& scheme) {
    return Recurrence{dp::AlignMode::kGlobal, dp::start_corner(start), scheme};
  }
  /// Reverse sweep whose original problem must end in `end` (hard).
  [[nodiscard]] static Recurrence global_end(dp::CellState end, const scoring::Scheme& scheme) {
    return Recurrence{dp::AlignMode::kGlobal, dp::end_corner(end, scheme), scheme};
  }

  /// Row-0 boundary vertex values at column j (H and F for the horizontal
  /// bus; F is -inf on row 0, E is the gap-run closed form).
  [[nodiscard]] BusCell top_boundary(Index j) const;
  /// Column-0 boundary vertex values at row i (H and E for the vertical bus).
  [[nodiscard]] BusCell left_boundary(Index i) const;
  /// E value on the row-0 boundary (the last column's row-0 entry).
  [[nodiscard]] Score top_boundary_e(Index j) const;
  /// F value on the column-0 boundary (needed for special-row entries at
  /// column 0; the vertical bus itself carries E, not F).
  [[nodiscard]] Score left_boundary_f(Index i) const;
};

struct TileJob {
  Index r0 = 0, r1 = 0;  ///< Cell rows (r0, r1].
  Index c0 = 0, c1 = 0;  ///< Cell cols (c0, c1].
  seq::SequenceView a;   ///< Full problem sequences (tile slices internally).
  seq::SequenceView b;
  const Recurrence* recurrence = nullptr;

  std::span<BusCell> hbus;            ///< Vertices [c0..c1]; in row r0, out row r1.
  std::span<const BusCell> vbus_in;   ///< Vertices [r0..r1] at column c0.
  std::span<BusCell> vbus_out;        ///< Vertices [r0..r1] at column c1.

  bool track_best = false;
  std::optional<Score> find_value;
};

/// What every kernel's value-range admission reads of a tile's inputs,
/// gathered in one branch-free min/max pass over hbus[1..w] and
/// vbus_in[0..rows] (hbus[0], the corner, belongs to the vertical bus). A
/// gap is "genuine" when it is not is_neg_inf; the genuine gap range of a
/// tile without one reads lo = max, hi = min, so range tests pass it.
struct BusInputs {
  Score h_lo = std::numeric_limits<Score>::max();    ///< H range, sentinels included.
  Score h_hi = std::numeric_limits<Score>::min();
  Score gap_lo = std::numeric_limits<Score>::max();  ///< Genuine gap range.
  Score gap_hi = std::numeric_limits<Score>::min();
  Score gap_floor = std::numeric_limits<Score>::max();  ///< Smallest gap, sentinels included.

  /// Some H input is a sentinel. Otherwise [h_lo, h_hi] is genuine.
  [[nodiscard]] bool sentinel_h() const noexcept { return is_neg_inf(h_lo); }
  /// Some gap input lies below 2 * kNegInf.
  [[nodiscard]] bool deep_gap() const noexcept { return gap_floor < 2 * kNegInf; }
  /// Largest H input, and 0 if none is larger (local mode's floor).
  [[nodiscard]] Score max_h() const noexcept { return std::max<Score>(0, h_hi); }
};

/// The one admission pass over `job`'s bus inputs. O(w + rows).
[[nodiscard]] BusInputs scan_bus_inputs(const TileJob& job) noexcept;

struct TileResult {
  dp::LocalBest best;                            ///< Valid if track_best.
  bool found = false;                            ///< find_value hit.
  Index found_i = 0, found_j = 0;                ///< First hit in row-major order.
  WideScore cells = 0;
  KernelId kernel = KernelId::kLegacy;           ///< Variant that computed the tile.
  /// Set by a narrow striped kernel whose lanes passed their envelope
  /// ceiling: it published nothing to the horizontal bus, and its vertical
  /// bus and the fields above are garbage. run_tile never returns one.
  bool overflowed = false;
  /// Set by run_tile when a narrow attempt overflowed and `kernel`, a
  /// costlier variant, re-ran the tile from its untouched inputs.
  bool rerun = false;
};

/// Reusable per-worker scratch (avoids per-tile allocation). Each kernel
/// family uses its own members; buffers keep their capacity across tiles.
struct TileScratch {
  // Row-sweep kernels: one H and one F value per column vertex.
  std::vector<Score> h;
  std::vector<Score> f;
  scoring::QueryProfile profile;  ///< Per-tile substitution rows (scalar family).
  // Anti-diagonal kernels: three H generations plus E/F for two, per lane width.
  std::vector<std::int16_t> lanes16;
  std::vector<std::int32_t> lanes32;
  std::vector<seq::Base> arev;  ///< Tile's row sequence, reversed.
  std::vector<seq::Base> bseg;  ///< Tile's column sequence, 1-based.
  // Striped kernels: H/F/Htmp/E lane planes plus entry staging and, with
  // best tracking, the kept H plane of the row that last raised the best,
  // per lane width, and the pad mask used for the (local) row-max reduction.
  std::vector<std::int8_t> striped8;
  std::vector<std::int16_t> striped16;
  std::vector<std::int32_t> striped32;
  std::vector<std::int8_t> striped_mask8;
  std::vector<std::int16_t> striped_mask16;
  std::vector<std::int32_t> striped_mask32;
  scoring::StripedProfile<std::int8_t> striped_profile8;
  scoring::StripedProfile<std::int16_t> striped_profile16;
  scoring::StripedProfile<std::int32_t> striped_profile32;
};

/// Runs one tile through the registry-selected kernel variant (see
/// kernel_registry.hpp). `forced` pins a specific variant when it can run the
/// job; otherwise selection falls back to the automatic choice (the process
/// pin is not consulted here: run_wavefront passes it as `forced`). A narrow
/// striped variant admits a tile by its inputs alone; when its lanes
/// overflow, the tile re-runs on the cheapest eligible strictly costlier
/// variant (int8 -> int16 -> int32 lanes) and the result says so
/// (TileResult::rerun). The vertical bus is rewritten in full by the re-run,
/// so a job's vbus_out must not alias its inputs. Deterministic; no shared
/// state beyond the job's spans. Every variant is bit-identical to
/// run_reference.
struct KernelVariant;
[[nodiscard]] TileResult run_tile(const TileJob& job, TileScratch& scratch,
                                  const KernelVariant* forced = nullptr);

/// run_tile for a caller that already holds the job's scan_bus_inputs
/// (the executor reads it for block pruning too).
[[nodiscard]] TileResult run_tile(const TileJob& job, const BusInputs& in, TileScratch& scratch,
                                  const KernelVariant* forced = nullptr);

}  // namespace cudalign::engine
