#include "engine/kernel_registry.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "check/annotations.hpp"
#include "check/checked.hpp"
#include "common/error.hpp"
#include "engine/kernel_detail.hpp"

namespace cudalign::engine {

namespace {

using dp::AlignMode;

constexpr std::size_t kCount = kKernelIdCount;

// The tuples the rows compute; legacy computes all 16.
constexpr unsigned kLocalPlain = KernelTraits{AlignMode::kLocal, false, false, false}.bit();
constexpr unsigned kLocalBest = KernelTraits{AlignMode::kLocal, true, false, false}.bit();
constexpr unsigned kGlobalPlain = KernelTraits{AlignMode::kGlobal, false, false, false}.bit();
constexpr unsigned kGlobalTaps = KernelTraits{AlignMode::kGlobal, false, true, false}.bit();
constexpr unsigned kGlobalFind = KernelTraits{AlignMode::kGlobal, false, false, true}.bit();
constexpr unsigned kGlobalTapsFind = KernelTraits{AlignMode::kGlobal, false, true, true}.bit();
constexpr unsigned kEveryTuple = 0xFFFF;

/// The registry, in KernelId order. Columns: id, name, cost, tuples, lane
/// rule, shape gate, entry point. The executor tracks the best on every
/// local tile, so the int32 local sweep has only the best-tracking tuple.
constexpr std::array<KernelVariant, kCount> kTable = {{
    {KernelId::kLegacy, "legacy", 30, kEveryTuple, LaneRule::kNone, false, &detail::run_legacy},
    {KernelId::kScalarLocalBest, "scalar-local+best", 20, kLocalBest, LaneRule::kNone, false,
     &detail::run_scalar<true, true, false, false>},
    {KernelId::kScalarGlobal, "scalar-global", 20, kGlobalPlain, LaneRule::kNone, false,
     &detail::run_scalar<false, false, false, false>},
    {KernelId::kScalarGlobalTaps, "scalar-global+taps", 20, kGlobalTaps, LaneRule::kNone, false,
     &detail::run_scalar<false, false, true, false>},
    {KernelId::kScalarGlobalFind, "scalar-global+find", 20, kGlobalFind, LaneRule::kNone, false,
     &detail::run_scalar<false, false, false, true>},
    {KernelId::kScalarGlobalTapsFind, "scalar-global+taps+find", 20, kGlobalTapsFind,
     LaneRule::kNone, false, &detail::run_scalar<false, false, true, true>},
    {KernelId::kVec16Local, "v16-local", 10, kLocalPlain, LaneRule::kInt16Reach, true,
     &detail::run_vector<std::int16_t, false>},
    {KernelId::kVec16LocalBest, "v16-local+best", 10, kLocalBest, LaneRule::kInt16Reach, true,
     &detail::run_vector<std::int16_t, true>},
    {KernelId::kVec32Local, "v32-local", 11, kLocalPlain, LaneRule::kInt32Drift, true,
     &detail::run_vector<std::int32_t, false>},
    {KernelId::kVec32LocalBest, "v32-local+best", 11, kLocalBest, LaneRule::kInt32Drift, true,
     &detail::run_vector<std::int32_t, true>},
    {KernelId::kStriped8Local, "striped8-local", 7, kLocalPlain, LaneRule::kInt8, true,
     &detail::run_striped<std::int8_t, false>},
    {KernelId::kStriped8LocalBest, "striped8-local+best", 7, kLocalBest, LaneRule::kInt8, true,
     &detail::run_striped<std::int8_t, true>},
    {KernelId::kStriped16Local, "striped16-local", 8, kLocalPlain, LaneRule::kInt16, true,
     &detail::run_striped<std::int16_t, false>},
    {KernelId::kStriped16LocalBest, "striped16-local+best", 8, kLocalBest, LaneRule::kInt16,
     true, &detail::run_striped<std::int16_t, true>},
    {KernelId::kStriped32Global, "striped32-global", 9,
     kGlobalPlain | kGlobalTaps | kGlobalFind | kGlobalTapsFind, LaneRule::kInt32, true,
     &detail::run_striped32_global},
    {KernelId::kStriped32LocalBest, "striped32-local+best", 9, kLocalBest, LaneRule::kInt32,
     true, &detail::run_striped<std::int32_t, true>},
}};

static_assert(
    [] {
      for (std::size_t i = 0; i < kCount; ++i) {
        if (static_cast<std::size_t>(kTable[i].id) != i) return false;
      }
      return true;
    }(),
    "kernel_info indexes the table by KernelId");

/// The narrow windows' input check: penalties within the cap, no sentinel H
/// (the scalar kernels let sentinel chains drift below kNegInf, which narrow
/// lanes cannot reproduce), and every genuine H and gap input within
/// [floor, ceiling]. Gap inputs may be sentinels: in local mode the genuine
/// branch wins within one step. Returns the largest H input when admitted.
/// It bounds nothing the tile computes: the striped sweeps detect an H past
/// the ceiling, and kInt16Reach adds a static bound.
std::optional<Score> window_admits(const TileJob& job, const BusInputs& in,
                                   const detail::LaneWindow& window) {
  const scoring::Scheme& s = job.recurrence->scheme;
  if (s.match > window.cap || s.mismatch < -window.cap || s.mismatch > 0 ||
      s.gap_first > window.cap || s.gap_first < 0 || s.gap_ext > window.cap || s.gap_ext < 0) {
    return std::nullopt;
  }
  if (in.sentinel_h() || in.h_lo < window.floor || in.h_hi > window.ceiling ||
      in.gap_lo < window.floor || in.gap_hi > window.ceiling) {
    return std::nullopt;
  }
  return in.max_h();
}

/// kInt16Reach: the anti-diagonal sweep cannot detect an overflow, so it
/// rules one out before running. Every match advances one row and one
/// column, so a path confined to the tile makes at most min(rows, w)
/// matches, which bounds every reachable H/E/F by max_h + match * min(rows, w).
bool int16_reach_admits(const TileJob& job, const BusInputs& in, Index rows, Index w) {
  const std::optional<Score> max_h = window_admits(job, in, detail::kInt16Window);
  const WideScore reach =
      check::checked_mul<WideScore>(job.recurrence->scheme.match, std::min(rows, w));
  return max_h.has_value() &&
         check::checked_add<WideScore>(*max_h, reach) <= detail::kInt16Window.ceiling;
}

/// kInt32: the reachable-score bound of the int32 striped sweeps.
bool int32_bound_admits(const TileJob& job, const BusInputs& in, Index rows, Index w) {
  // Sentinel H inputs are refused: the bound starts from genuine H
  // everywhere. Gap inputs may be sentinels — every gap update is
  // max(gap - G_ext, H - G_first), so the genuine H branch wins within one
  // step — provided they sit at or above kNegInf * 2, so one G_ext more
  // cannot wrap.
  if (in.sentinel_h() || in.deep_gap()) return false;
  // Largest |input| over the genuine values: the ends of their ranges.
  WideScore max_abs = 0;
  for (const auto& [lo, hi] : {std::pair{in.h_lo, in.h_hi}, std::pair{in.gap_lo, in.gap_hi}}) {
    if (lo <= hi) max_abs = std::max({max_abs, std::abs(WideScore{lo}), std::abs(WideScore{hi})});
  }
  // Every value the sweep computes — genuine cells, pad slots, decayed
  // bridge terms — is an input moved by at most rows + padded width steps
  // of at most `step` each. Keeping that below |kNegInf| / 2 keeps genuine
  // values clear of is_neg_inf and leaves the sentinel chains (>= 2 *
  // kNegInf, minus the same bound) inside int32.
  const scoring::Scheme& s = job.recurrence->scheme;
  const WideScore step = std::max<WideScore>(
      {std::abs(WideScore{s.match}), std::abs(WideScore{s.mismatch}), WideScore{s.gap_first},
       WideScore{s.gap_ext}});
  const WideScore steps = check::checked_add<WideScore>(check::checked_add<WideScore>(rows, w),
                                                        detail::kMaxStripedLanes);
  const WideScore bound =
      check::checked_add<WideScore>(max_abs, check::checked_mul<WideScore>(step, steps));
  return bound < -(WideScore{kNegInf} / 2);
}

/// Table indices in ascending cost (stable within equal cost), computed once.
const std::array<std::size_t, kCount>& cost_order() {
  static const std::array<std::size_t, kCount> kOrder = [] {
    std::array<std::size_t, kCount> order{};
    for (std::size_t i = 0; i < kCount; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [](std::size_t a, std::size_t b) {
      return kTable[a].cost < kTable[b].cost;
    });
    return order;
  }();
  return kOrder;
}

std::mutex g_override_mutex;
const KernelVariant* g_override CUDALIGN_GUARDED_BY(g_override_mutex) = nullptr;
bool g_override_initialized CUDALIGN_GUARDED_BY(g_override_mutex) = false;

}  // namespace

std::span<const KernelVariant> kernel_registry() noexcept { return kTable; }

const KernelVariant* find_kernel(std::string_view name) noexcept {
  for (const KernelVariant& variant : kTable) {
    if (variant.name == name) return &variant;
  }
  return nullptr;
}

const KernelVariant& kernel_info(KernelId id) noexcept {
  return kTable[static_cast<std::size_t>(id)];
}

bool admits(const KernelVariant& variant, const TileJob& job, const BusInputs& in) {
  if ((variant.tuples & KernelTraits::of(job).bit()) == 0) return false;
  if (variant.lanes == LaneRule::kNone) return true;
  const Index rows = check::checked_sub(job.r1, job.r0);
  const Index w = check::checked_sub(job.c1, job.c0);
  // A lane sweep needs a row, and a local one a column too.
  if (rows < 1 || (w < 1 && job.recurrence->mode == AlignMode::kLocal)) return false;
  switch (variant.lanes) {
    case LaneRule::kNone:
    case LaneRule::kInt32Drift:
      return true;
    case LaneRule::kInt8:
      return window_admits(job, in, detail::kInt8Window).has_value();
    case LaneRule::kInt16:
      return window_admits(job, in, detail::kInt16Window).has_value();
    case LaneRule::kInt16Reach:
      return int16_reach_admits(job, in, rows, w);
    case LaneRule::kInt32:
      return int32_bound_admits(job, in, rows, w);
  }
  return false;
}

void set_kernel_override(std::string_view name) {
  const KernelVariant* v = name.empty() ? nullptr : find_kernel(name);
  CUDALIGN_CHECK(name.empty() || v != nullptr,
                 "unknown kernel variant (see kernel_registry()): " + std::string(name));
  std::lock_guard lock(g_override_mutex);
  g_override_initialized = true;
  g_override = v;
}

const KernelVariant* kernel_override() noexcept {
  std::lock_guard lock(g_override_mutex);
  if (!g_override_initialized) {
    g_override_initialized = true;
    if (const char* env = std::getenv("CUDALIGN_KERNEL"); env != nullptr && *env != '\0') {
      g_override = find_kernel(env);
      if (g_override == nullptr) {
        // Fail fast with an actionable message. A misspelled CUDALIGN_KERNEL
        // must never silently fall back to automatic selection (the run would
        // quietly measure the wrong kernel), and this accessor is noexcept on
        // worker threads, so a clean exit beats a mid-run throw.
        std::fprintf(stderr,
                     "cudalign: unknown kernel name in CUDALIGN_KERNEL: \"%s\"\n"
                     "valid names: %s\n",
                     env, kernel_names_list().c_str());
        std::exit(2);
      }
    }
  }
  return g_override;
}

std::string kernel_names_list() {
  std::string names;
  for (const KernelVariant& variant : kernel_registry()) {
    if (!names.empty()) names += ", ";
    names += variant.name;
  }
  return names;
}

void reload_kernel_override_from_env() {
  {
    std::lock_guard lock(g_override_mutex);
    g_override = nullptr;
    g_override_initialized = false;
  }
  (void)kernel_override();
}

namespace {

/// The cheapest variant costlier than `min_cost` that passes its shape gate
/// and admits the job.
const KernelVariant& cheapest_eligible(const TileJob& job, const BusInputs& in, int min_cost) {
  const bool gate_passed =
      job.c1 - job.c0 >= kShapeGateMinWidth && job.r1 - job.r0 >= kShapeGateMinRows;
  for (std::size_t idx : cost_order()) {
    const KernelVariant& variant = kTable[idx];
    if (variant.cost <= min_cost) continue;
    if (variant.shape_gate && !gate_passed) continue;
    if (admits(variant, job, in)) return variant;
  }
  return kernel_info(KernelId::kLegacy);  // Unreachable: legacy accepts any job.
}

}  // namespace

const KernelVariant& select_kernel(const TileJob& job, const BusInputs& in,
                                   const KernelVariant* forced) {
  if (forced != nullptr && admits(*forced, job, in)) return *forced;
  return cheapest_eligible(job, in, -1);
}

const KernelVariant& select_costlier_kernel(const TileJob& job, const BusInputs& in,
                                            const KernelVariant& overflowed) {
  return cheapest_eligible(job, in, overflowed.cost);
}

}  // namespace cudalign::engine
