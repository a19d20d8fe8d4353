// Striped kernel backends (generic + SSE2) and the runtime ISA dispatch.
//
// The algorithm lives in striped_core.hpp, templated over a tiny lane-ops
// backend; this file provides the portable scalar emulation (kGeneric — the
// forced baseline for equivalence tests), the SSE2 128-bit backends, and the
// process-wide ISA selection (CUDALIGN_SIMD / set_simd_isa_override). The
// AVX2 backends live in kernels_striped_avx2.cpp (the one TU compiled with
// -mavx2) and the AVX-512BW backends in kernels_striped_avx512.cpp (the one
// TU compiled with -mavx512bw); each is only entered when the CPU reports the
// matching feature.
//
// SSE2 has no signed 8-bit max (_mm_max_epi8 is SSE4.1), so the int8 backend
// uses the classic bias trick: flip the sign bit, take the *unsigned* max,
// flip back — xor with 0x80 is an order-isomorphism from signed to unsigned.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <mutex>
#include <string_view>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "check/annotations.hpp"
#include "common/error.hpp"
#include "engine/kernel_registry.hpp"
#include "engine/striped_core.hpp"

namespace cudalign::engine {

namespace {

/// Portable emulation of the lane ops; bit-identical to the SIMD backends by
/// construction (same widths, same saturation points; int32 lanes never
/// reach theirs inside the striped32 envelopes, where the SIMD backends'
/// plain adds would wrap). 128-bit shaped so generic-vs-SSE2 runs stripe the
/// tile identically.
template <typename LaneT, int N, LaneT kNinf>
struct GenericBackend {
  using Lane = LaneT;
  static constexpr Index kLanes = N;
  static constexpr Lane kNinfLane = kNinf;
  static constexpr std::int64_t kMin = std::numeric_limits<Lane>::min();
  static constexpr std::int64_t kMax = std::numeric_limits<Lane>::max();

  struct V {
    Lane v[N];
  };

  static V load(const Lane* p) {
    V r;
    std::memcpy(r.v, p, sizeof(r.v));
    return r;
  }
  static void store(Lane* p, V x) { std::memcpy(p, x.v, sizeof(x.v)); }
  static V set1(Lane x) {
    V r;
    for (Lane& e : r.v) e = x;
    return r;
  }
  static V zero() { return set1(0); }
  static V max(V a, V b) {
    V r;
    for (int i = 0; i < N; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
    return r;
  }
  static V adds(V a, V b) {
    V r;
    for (int i = 0; i < N; ++i) {
      r.v[i] = static_cast<Lane>(
          std::clamp<std::int64_t>(std::int64_t{a.v[i]} + b.v[i], kMin, kMax));
    }
    return r;
  }
  static V subs(V a, V b) {
    V r;
    for (int i = 0; i < N; ++i) {
      r.v[i] = static_cast<Lane>(
          std::clamp<std::int64_t>(std::int64_t{a.v[i]} - b.v[i], kMin, kMax));
    }
    return r;
  }
  static V and_(V a, V b) {
    V r;
    for (int i = 0; i < N; ++i) r.v[i] = static_cast<Lane>(a.v[i] & b.v[i]);
    return r;
  }
  static V or_(V a, V b) {
    V r;
    for (int i = 0; i < N; ++i) r.v[i] = static_cast<Lane>(a.v[i] | b.v[i]);
    return r;
  }
  static V eq(V a, V b) {
    V r;
    for (int i = 0; i < N; ++i) r.v[i] = a.v[i] == b.v[i] ? Lane{-1} : Lane{0};
    return r;
  }
  static V shift_in(V a, Lane x) {
    V r;
    r.v[0] = x;
    for (int i = 1; i < N; ++i) r.v[i] = a.v[i - 1];
    return r;
  }
  template <int kSt>
  static V shift_up(V a) {
    constexpr int k = 1 << kSt;
    V r;
    for (int i = 0; i < N; ++i) r.v[i] = i >= k ? a.v[i - k] : kNinf;
    return r;
  }
  static bool any_gt(V a, Lane x) {
    return std::any_of(std::begin(a.v), std::end(a.v), [x](Lane e) { return e > x; });
  }
  static bool any_nonzero(V a) {
    return std::any_of(std::begin(a.v), std::end(a.v), [](Lane e) { return e != 0; });
  }
};

using Generic8 = GenericBackend<std::int8_t, 16, std::int8_t{-128}>;
using Generic16 = GenericBackend<std::int16_t, 8, std::int16_t{-16384}>;
using Generic32 = GenericBackend<std::int32_t, 4, kNegInf>;

#if defined(__SSE2__)

/// v moved up kBytes bytes, the vacated low bytes taken from the top of
/// `fill` (the lane moves of every SSE2 backend; kBytes <= 8 there).
template <int kBytes>
__m128i sse2_shift_up(__m128i v, __m128i fill) {
  return _mm_or_si128(_mm_slli_si128(v, kBytes), _mm_srli_si128(fill, 16 - kBytes));
}

template <typename LaneT>
struct Sse2Backend;

template <>
struct Sse2Backend<std::int16_t> {
  using Lane = std::int16_t;
  static constexpr Index kLanes = 8;
  static constexpr Lane kNinfLane = -16384;
  using V = __m128i;

  static V load(const Lane* p) { return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)); }
  static void store(Lane* p, V x) { _mm_storeu_si128(reinterpret_cast<__m128i*>(p), x); }
  static V set1(Lane x) { return _mm_set1_epi16(x); }
  static V zero() { return _mm_setzero_si128(); }
  static V max(V a, V b) { return _mm_max_epi16(a, b); }
  static V adds(V a, V b) { return _mm_adds_epi16(a, b); }
  static V subs(V a, V b) { return _mm_subs_epi16(a, b); }
  static V and_(V a, V b) { return _mm_and_si128(a, b); }
  static V shift_in(V v, Lane x) { return sse2_shift_up<sizeof(Lane)>(v, set1(x)); }
  template <int kSt>
  static V shift_up(V v) {
    return sse2_shift_up<(sizeof(Lane) << kSt)>(v, set1(kNinfLane));
  }
  static bool any_gt(V v, Lane x) { return _mm_movemask_epi8(_mm_cmpgt_epi16(v, set1(x))) != 0; }
};

template <>
struct Sse2Backend<std::int8_t> {
  using Lane = std::int8_t;
  static constexpr Index kLanes = 16;
  static constexpr Lane kNinfLane = -128;
  using V = __m128i;

  static V load(const Lane* p) { return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)); }
  static void store(Lane* p, V x) { _mm_storeu_si128(reinterpret_cast<__m128i*>(p), x); }
  static V set1(Lane x) { return _mm_set1_epi8(static_cast<char>(x)); }
  static V zero() { return _mm_setzero_si128(); }
  static V max(V a, V b) {
    // SSE2 lacks _mm_max_epi8; xor 0x80 maps signed order onto unsigned.
    const V bias = _mm_set1_epi8(static_cast<char>(-128));
    return _mm_xor_si128(_mm_max_epu8(_mm_xor_si128(a, bias), _mm_xor_si128(b, bias)), bias);
  }
  static V adds(V a, V b) { return _mm_adds_epi8(a, b); }
  static V subs(V a, V b) { return _mm_subs_epi8(a, b); }
  static V and_(V a, V b) { return _mm_and_si128(a, b); }
  static V shift_in(V v, Lane x) { return sse2_shift_up<sizeof(Lane)>(v, set1(x)); }
  template <int kSt>
  static V shift_up(V v) {
    return sse2_shift_up<(sizeof(Lane) << kSt)>(v, set1(kNinfLane));
  }
  static bool any_gt(V v, Lane x) { return _mm_movemask_epi8(_mm_cmpgt_epi8(v, set1(x))) != 0; }
};

/// int32 lanes: plain add/sub (the striped32 envelopes keep every value far
/// from wrapping). SSE2 has no _mm_max_epi32 (SSE4.1), so max selects
/// through a compare mask.
template <>
struct Sse2Backend<std::int32_t> {
  using Lane = std::int32_t;
  static constexpr Index kLanes = 4;
  static constexpr Lane kNinfLane = kNegInf;
  using V = __m128i;

  static V load(const Lane* p) { return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)); }
  static void store(Lane* p, V x) { _mm_storeu_si128(reinterpret_cast<__m128i*>(p), x); }
  static V set1(Lane x) { return _mm_set1_epi32(x); }
  static V zero() { return _mm_setzero_si128(); }
  static V max(V a, V b) {
    const V a_wins = _mm_cmpgt_epi32(a, b);
    return _mm_or_si128(_mm_and_si128(a_wins, a), _mm_andnot_si128(a_wins, b));
  }
  static V adds(V a, V b) { return _mm_add_epi32(a, b); }
  static V subs(V a, V b) { return _mm_sub_epi32(a, b); }
  static V and_(V a, V b) { return _mm_and_si128(a, b); }
  static V or_(V a, V b) { return _mm_or_si128(a, b); }
  static V eq(V a, V b) { return _mm_cmpeq_epi32(a, b); }
  static V shift_in(V v, Lane x) { return sse2_shift_up<sizeof(Lane)>(v, set1(x)); }
  template <int kSt>
  static V shift_up(V v) {
    return sse2_shift_up<(sizeof(Lane) << kSt)>(v, set1(kNinfLane));
  }
  static bool any_gt(V v, Lane x) { return _mm_movemask_epi8(_mm_cmpgt_epi32(v, set1(x))) != 0; }
  static bool any_nonzero(V v) {
    return _mm_movemask_epi8(_mm_cmpeq_epi32(v, zero())) != 0xFFFF;
  }
};

#endif  // __SSE2__

[[nodiscard]] bool isa_supported(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::kGeneric:
      return true;
    case SimdIsa::kSse2:
#if defined(__SSE2__)
      return true;
#else
      return false;
#endif
    case SimdIsa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return detail::avx2_kernels_compiled() && __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case SimdIsa::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      return detail::avx512_kernels_compiled() && __builtin_cpu_supports("avx512bw");
#else
      return false;
#endif
  }
  return false;
}

/// The best ISA this build + CPU can run (the "auto" choice).
[[nodiscard]] SimdIsa best_isa() noexcept {
  if (isa_supported(SimdIsa::kAvx512)) return SimdIsa::kAvx512;
  if (isa_supported(SimdIsa::kAvx2)) return SimdIsa::kAvx2;
  if (isa_supported(SimdIsa::kSse2)) return SimdIsa::kSse2;
  return SimdIsa::kGeneric;
}

std::mutex g_isa_mutex;
bool g_isa_env_loaded CUDALIGN_GUARDED_BY(g_isa_mutex) = false;
bool g_isa_forced CUDALIGN_GUARDED_BY(g_isa_mutex) = false;
SimdIsa g_isa CUDALIGN_GUARDED_BY(g_isa_mutex) = SimdIsa::kGeneric;

/// Parses CUDALIGN_SIMD once (under g_isa_mutex). Unknown or unsupported
/// values fail fast: a forced baseline that silently ran AVX2 anyway would
/// invalidate exactly the comparisons the override exists for.
void load_isa_env_locked() CUDALIGN_REQUIRES(g_isa_mutex) {
  g_isa_env_loaded = true;
  const char* env = std::getenv("CUDALIGN_SIMD");
  if (env == nullptr || *env == '\0') return;
  const std::string_view value(env);
  if (value == "auto") return;
  SimdIsa isa = SimdIsa::kGeneric;
  if (value == "generic") {
    isa = SimdIsa::kGeneric;
  } else if (value == "sse2") {
    isa = SimdIsa::kSse2;
  } else if (value == "avx2") {
    isa = SimdIsa::kAvx2;
  } else if (value == "avx512") {
    isa = SimdIsa::kAvx512;
  } else {
    std::fprintf(stderr,
                 "cudalign: unknown SIMD ISA in CUDALIGN_SIMD: \"%s\"\n"
                 "valid values: auto, generic, sse2, avx2, avx512\n",
                 env);
    std::exit(2);
  }
  if (!isa_supported(isa)) {
    std::fprintf(stderr, "cudalign: CUDALIGN_SIMD=%s is not available in this build/CPU\n", env);
    std::exit(2);
  }
  g_isa_forced = true;
  g_isa = isa;
}

}  // namespace

SimdIsa active_simd_isa() noexcept {
  std::lock_guard lock(g_isa_mutex);
  if (!g_isa_env_loaded) load_isa_env_locked();
  return g_isa_forced ? g_isa : best_isa();
}

void set_simd_isa_override(SimdIsa isa) {
  CUDALIGN_CHECK(isa_supported(isa), "SIMD ISA not available in this build/CPU: " +
                                         std::string(simd_isa_name(isa)));
  std::lock_guard lock(g_isa_mutex);
  g_isa_env_loaded = true;  // An explicit override supersedes the environment.
  g_isa_forced = true;
  g_isa = isa;
}

void clear_simd_isa_override() noexcept {
  std::lock_guard lock(g_isa_mutex);
  g_isa_env_loaded = true;
  g_isa_forced = false;
}

void reload_simd_isa_from_env() {
  std::lock_guard lock(g_isa_mutex);
  g_isa_forced = false;
  load_isa_env_locked();
}

std::string_view simd_isa_name(SimdIsa isa) noexcept {
  switch (isa) {
    case SimdIsa::kGeneric:
      return "generic";
    case SimdIsa::kSse2:
      return "sse2";
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

namespace detail {

namespace {

/// Runtime ISA dispatch shared by every striped entry point.
template <typename LaneT, bool kLocal, bool kBest, bool kTaps, bool kFind>
TileResult run_striped_isa(const TileJob& job, TileScratch& scratch) {
  switch (active_simd_isa()) {
    case SimdIsa::kAvx512:
      return run_striped_avx512<LaneT, kLocal, kBest, kTaps, kFind>(job, scratch);
    case SimdIsa::kAvx2:
      return run_striped_avx2<LaneT, kLocal, kBest, kTaps, kFind>(job, scratch);
    case SimdIsa::kSse2:
#if defined(__SSE2__)
      return run_striped_core<Sse2Backend<LaneT>, kLocal, kBest, kTaps, kFind>(job, scratch);
#else
      break;  // Unreachable: active_simd_isa never reports an unsupported ISA.
#endif
    case SimdIsa::kGeneric:
      break;
  }
  if constexpr (sizeof(LaneT) == 1) {
    return run_striped_core<Generic8, kLocal, kBest, kTaps, kFind>(job, scratch);
  } else if constexpr (sizeof(LaneT) == 2) {
    return run_striped_core<Generic16, kLocal, kBest, kTaps, kFind>(job, scratch);
  } else {
    return run_striped_core<Generic32, kLocal, kBest, kTaps, kFind>(job, scratch);
  }
}

}  // namespace

template <typename LaneT, bool kBest>
TileResult run_striped(const TileJob& job, TileScratch& scratch) {
  return run_striped_isa<LaneT, true, kBest, false, false>(job, scratch);
}

TileResult run_striped32_global(const TileJob& job, TileScratch& scratch) {
  const bool taps = !job.tap_cols.empty();
  const bool find = job.find_value.has_value();
  if (taps && find) return run_striped_isa<std::int32_t, false, false, true, true>(job, scratch);
  if (taps) return run_striped_isa<std::int32_t, false, false, true, false>(job, scratch);
  if (find) return run_striped_isa<std::int32_t, false, false, false, true>(job, scratch);
  return run_striped_isa<std::int32_t, false, false, false, false>(job, scratch);
}

template TileResult run_striped<std::int8_t, false>(const TileJob&, TileScratch&);
template TileResult run_striped<std::int8_t, true>(const TileJob&, TileScratch&);
template TileResult run_striped<std::int16_t, false>(const TileJob&, TileScratch&);
template TileResult run_striped<std::int16_t, true>(const TileJob&, TileScratch&);
template TileResult run_striped<std::int32_t, true>(const TileJob&, TileScratch&);

}  // namespace detail

}  // namespace cudalign::engine
