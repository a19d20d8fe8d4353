#include "engine/kernel_registry.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>

#include "check/annotations.hpp"
#include "common/error.hpp"
#include "engine/kernel_detail.hpp"

namespace cudalign::engine {

namespace {

using dp::AlignMode;

bool any_job(const TileJob&, const BusInputs&) { return true; }

/// Exact feature match: a specialized sweep runs precisely the jobs whose
/// trait tuple equals its template instantiation (a broader variant would
/// compute unused features; a narrower one would miss requested ones).
template <bool kLocal, bool kBest, bool kTaps, bool kFind>
bool scalar_can_run(const TileJob& job, const BusInputs&) {
  return KernelTraits::of(job) ==
         KernelTraits{kLocal ? AlignMode::kLocal : AlignMode::kGlobal, kBest, kTaps, kFind};
}

template <bool kBest>
bool vec16_can_run(const TileJob& job, const BusInputs& in) {
  return job.track_best == kBest && detail::vector16_can_run(job, in);
}

template <bool kBest>
bool vec32_can_run(const TileJob& job, const BusInputs&) {
  return job.track_best == kBest && detail::vector_can_run(job);
}

template <bool kBest>
bool striped8_can_run(const TileJob& job, const BusInputs& in) {
  return job.track_best == kBest && detail::striped8_can_run(job, in);
}

template <bool kBest>
bool striped16_can_run(const TileJob& job, const BusInputs& in) {
  return job.track_best == kBest && detail::striped16_can_run(job, in);
}

/// Only the best-tracking tuple: the executor tracks the best on every local
/// tile, so an int32 local sweep without it would never be selected.
bool striped32_local_best_can_run(const TileJob& job, const BusInputs& in) {
  return job.track_best && detail::striped32_local_can_run(job, in);
}

/// Anti-diagonal and striped sweeps only pay off when the diagonals / lane
/// segments are long enough to fill vector lanes; below these shapes the
/// automatic order prefers the row sweeps. Overrides bypass the gate (admits
/// still guards correctness).
constexpr Index kVectorMinWidth = 16;
constexpr Index kVectorMinRows = 8;

struct Entry {
  KernelVariant variant;
  Index min_width = 0;  ///< Automatic-selection shape gate, not a correctness bound.
  Index min_rows = 0;
};

constexpr std::size_t kCount = kKernelIdCount;

const std::array<Entry, kCount>& table() {
  static const std::array<Entry, kCount> kTable = {{
      {{KernelId::kLegacy, "legacy", 30, &any_job, &detail::run_legacy}},
      {{KernelId::kScalarLocalBest, "scalar-local+best", 20,
        &scalar_can_run<true, true, false, false>, &detail::run_scalar<true, true, false, false>}},
      {{KernelId::kScalarGlobal, "scalar-global", 20, &scalar_can_run<false, false, false, false>,
        &detail::run_scalar<false, false, false, false>}},
      {{KernelId::kScalarGlobalTaps, "scalar-global+taps", 20,
        &scalar_can_run<false, false, true, false>, &detail::run_scalar<false, false, true, false>}},
      {{KernelId::kScalarGlobalFind, "scalar-global+find", 20,
        &scalar_can_run<false, false, false, true>, &detail::run_scalar<false, false, false, true>}},
      {{KernelId::kScalarGlobalTapsFind, "scalar-global+taps+find", 20,
        &scalar_can_run<false, false, true, true>, &detail::run_scalar<false, false, true, true>}},
      {{KernelId::kVec16Local, "v16-local", 10, &vec16_can_run<false>,
        &detail::run_vector<std::int16_t, false>},
       kVectorMinWidth,
       kVectorMinRows},
      {{KernelId::kVec16LocalBest, "v16-local+best", 10, &vec16_can_run<true>,
        &detail::run_vector<std::int16_t, true>},
       kVectorMinWidth,
       kVectorMinRows},
      {{KernelId::kVec32Local, "v32-local", 11, &vec32_can_run<false>,
        &detail::run_vector<std::int32_t, false>},
       kVectorMinWidth,
       kVectorMinRows},
      {{KernelId::kVec32LocalBest, "v32-local+best", 11, &vec32_can_run<true>,
        &detail::run_vector<std::int32_t, true>},
       kVectorMinWidth,
       kVectorMinRows},
      {{KernelId::kStriped8Local, "striped8-local", 7, &striped8_can_run<false>,
        &detail::run_striped<std::int8_t, false>},
       kVectorMinWidth,
       kVectorMinRows},
      {{KernelId::kStriped8LocalBest, "striped8-local+best", 7, &striped8_can_run<true>,
        &detail::run_striped<std::int8_t, true>},
       kVectorMinWidth,
       kVectorMinRows},
      {{KernelId::kStriped16Local, "striped16-local", 8, &striped16_can_run<false>,
        &detail::run_striped<std::int16_t, false>},
       kVectorMinWidth,
       kVectorMinRows},
      {{KernelId::kStriped16LocalBest, "striped16-local+best", 8, &striped16_can_run<true>,
        &detail::run_striped<std::int16_t, true>},
       kVectorMinWidth,
       kVectorMinRows},
      {{KernelId::kStriped32Global, "striped32-global", 9, &detail::striped32_global_can_run,
        &detail::run_striped32_global},
       kVectorMinWidth,
       kVectorMinRows},
      {{KernelId::kStriped32LocalBest, "striped32-local+best", 9, &striped32_local_best_can_run,
        &detail::run_striped<std::int32_t, true>},
       kVectorMinWidth,
       kVectorMinRows},
  }};
  return kTable;
}

/// Table indices in ascending cost (stable within equal cost), computed once.
const std::array<std::size_t, kCount>& cost_order() {
  static const std::array<std::size_t, kCount> kOrder = [] {
    std::array<std::size_t, kCount> order{};
    for (std::size_t i = 0; i < kCount; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(), [](std::size_t a, std::size_t b) {
      return table()[a].variant.cost < table()[b].variant.cost;
    });
    return order;
  }();
  return kOrder;
}

std::mutex g_override_mutex;
const KernelVariant* g_override CUDALIGN_GUARDED_BY(g_override_mutex) = nullptr;
bool g_override_initialized CUDALIGN_GUARDED_BY(g_override_mutex) = false;

}  // namespace

std::span<const KernelVariant> kernel_registry() noexcept {
  static const std::array<KernelVariant, kCount> kVariants = [] {
    std::array<KernelVariant, kCount> out{};
    for (std::size_t i = 0; i < kCount; ++i) out[i] = table()[i].variant;
    return out;
  }();
  return kVariants;
}

const KernelVariant* find_kernel(std::string_view name) noexcept {
  for (const Entry& entry : table()) {
    if (entry.variant.name == name) return &entry.variant;
  }
  return nullptr;
}

const KernelVariant& kernel_info(KernelId id) noexcept {
  return table()[static_cast<std::size_t>(id)].variant;
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

/// The cheapest variant costlier than `min_cost` whose shape gate and
/// predicate accept the job.
const KernelVariant& cheapest_eligible(const TileJob& job, const BusInputs& in, int min_cost) {
  const Index w = job.c1 - job.c0;
  const Index rows = job.r1 - job.r0;
  for (std::size_t idx : cost_order()) {
    const Entry& entry = table()[idx];
    if (entry.variant.cost <= min_cost) continue;
    if (w < entry.min_width || rows < entry.min_rows) continue;
    if (entry.variant.admits(job, in)) return entry.variant;
  }
  return kernel_info(KernelId::kLegacy);  // Unreachable: legacy accepts any job.
}

}  // namespace

const KernelVariant& select_kernel(const TileJob& job, const BusInputs& in,
                                   const KernelVariant* forced) {
  if (forced != nullptr && forced->admits(job, in)) return *forced;
  return cheapest_eligible(job, in, -1);
}

const KernelVariant& select_costlier_kernel(const TileJob& job, const BusInputs& in,
                                            const KernelVariant& overflowed) {
  return cheapest_eligible(job, in, overflowed.cost);
}

}  // namespace cudalign::engine
