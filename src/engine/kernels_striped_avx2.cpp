// AVX2 striped backends — the only translation unit compiled with -mavx2.
//
// Keeping the AVX2 code generation isolated here lets the rest of the engine
// build for the baseline ISA while this file provides 256-bit backends
// (32 x int8 / 16 x int16 / 8 x int32 lanes) behind a runtime CPU check: the
// dispatch in kernels_striped.cpp only calls these entry points after
// __builtin_cpu_supports("avx2") and avx2_kernels_compiled() both pass, so no
// AVX2 instruction is ever reached on an older CPU. When the toolchain cannot
// target AVX2 the stubs below keep the link whole and report "not compiled".
//
// Note _mm256_max_epi8/epi16 exist in AVX2 (unlike SSE2), so no bias trick.
#include <cstdint>

#include "engine/kernel_detail.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include "engine/striped_core.hpp"

namespace cudalign::engine::detail {

namespace {

/// v moved up kBytes bytes (kBytes <= 16, half a register), the vacated low
/// bytes taken from the top of `fill`: permute2x128 lines up
/// [fill.hi | v.lo] under v, and alignr pulls each 128-bit half's low bytes
/// from the half below it.
template <int kBytes>
__m256i avx2_shift_up(__m256i v, __m256i fill) {
  static_assert(kBytes > 0 && kBytes <= 16);
  const __m256i below = _mm256_permute2x128_si256(v, fill, 0x03);
  if constexpr (kBytes == 16) {
    return below;
  } else {
    return _mm256_alignr_epi8(v, below, 16 - kBytes);
  }
}

template <typename LaneT>
struct Avx2Backend;

template <>
struct Avx2Backend<std::int16_t> {
  using Lane = std::int16_t;
  static constexpr Index kLanes = 16;
  static constexpr Lane kNinfLane = -16384;
  using V = __m256i;

  static V load(const Lane* p) { return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)); }
  static void store(Lane* p, V x) { _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), x); }
  static V set1(Lane x) { return _mm256_set1_epi16(x); }
  static V zero() { return _mm256_setzero_si256(); }
  static V max(V a, V b) { return _mm256_max_epi16(a, b); }
  static V adds(V a, V b) { return _mm256_adds_epi16(a, b); }
  static V subs(V a, V b) { return _mm256_subs_epi16(a, b); }
  static V and_(V a, V b) { return _mm256_and_si256(a, b); }
  static V shift_in(V v, Lane x) { return avx2_shift_up<sizeof(Lane)>(v, set1(x)); }
  template <int kSt>
  static V shift_up(V v) {
    return avx2_shift_up<(sizeof(Lane) << kSt)>(v, set1(kNinfLane));
  }
  static bool any_gt(V v, Lane x) { return _mm256_movemask_epi8(_mm256_cmpgt_epi16(v, set1(x))) != 0; }
};

template <>
struct Avx2Backend<std::int8_t> {
  using Lane = std::int8_t;
  static constexpr Index kLanes = 32;
  static constexpr Lane kNinfLane = -128;
  using V = __m256i;

  static V load(const Lane* p) { return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)); }
  static void store(Lane* p, V x) { _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), x); }
  static V set1(Lane x) { return _mm256_set1_epi8(static_cast<char>(x)); }
  static V zero() { return _mm256_setzero_si256(); }
  static V max(V a, V b) { return _mm256_max_epi8(a, b); }
  static V adds(V a, V b) { return _mm256_adds_epi8(a, b); }
  static V subs(V a, V b) { return _mm256_subs_epi8(a, b); }
  static V and_(V a, V b) { return _mm256_and_si256(a, b); }
  static V shift_in(V v, Lane x) { return avx2_shift_up<sizeof(Lane)>(v, set1(x)); }
  template <int kSt>
  static V shift_up(V v) {
    return avx2_shift_up<(sizeof(Lane) << kSt)>(v, set1(kNinfLane));
  }
  static bool any_gt(V v, Lane x) { return _mm256_movemask_epi8(_mm256_cmpgt_epi8(v, set1(x))) != 0; }
};

/// int32 lanes (either mode): plain add/sub (see striped_core.hpp).
template <>
struct Avx2Backend<std::int32_t> {
  using Lane = std::int32_t;
  static constexpr Index kLanes = 8;
  static constexpr Lane kNinfLane = kNegInf;
  using V = __m256i;

  static V load(const Lane* p) { return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)); }
  static void store(Lane* p, V x) { _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), x); }
  static V set1(Lane x) { return _mm256_set1_epi32(x); }
  static V zero() { return _mm256_setzero_si256(); }
  static V max(V a, V b) { return _mm256_max_epi32(a, b); }
  static V adds(V a, V b) { return _mm256_add_epi32(a, b); }
  static V subs(V a, V b) { return _mm256_sub_epi32(a, b); }
  static V and_(V a, V b) { return _mm256_and_si256(a, b); }
  static V or_(V a, V b) { return _mm256_or_si256(a, b); }
  static V eq(V a, V b) { return _mm256_cmpeq_epi32(a, b); }
  static V shift_in(V v, Lane x) { return avx2_shift_up<sizeof(Lane)>(v, set1(x)); }
  template <int kSt>
  static V shift_up(V v) {
    return avx2_shift_up<(sizeof(Lane) << kSt)>(v, set1(kNinfLane));
  }
  static bool any_gt(V v, Lane x) { return _mm256_movemask_epi8(_mm256_cmpgt_epi32(v, set1(x))) != 0; }
  static bool any_nonzero(V v) { return _mm256_testz_si256(v, v) == 0; }
};

}  // namespace

bool avx2_kernels_compiled() noexcept { return true; }

template <typename LaneT, bool kLocal, bool kBest, bool kTaps, bool kFind>
TileResult run_striped_avx2(const TileJob& job, TileScratch& scratch) {
  return run_striped_core<Avx2Backend<LaneT>, kLocal, kBest, kTaps, kFind>(job, scratch);
}

CUDALIGN_STRIPED_ISA_INSTANTIATIONS(template, run_striped_avx2)

}  // namespace cudalign::engine::detail

#else  // !defined(__AVX2__)

namespace cudalign::engine::detail {

bool avx2_kernels_compiled() noexcept { return false; }

template <typename LaneT, bool kLocal, bool kBest, bool kTaps, bool kFind>
TileResult run_striped_avx2(const TileJob& job, TileScratch& scratch) {
  (void)job;
  (void)scratch;
  CUDALIGN_CHECK(false, "AVX2 striped kernel called but not compiled in");
  return TileResult{};
}

CUDALIGN_STRIPED_ISA_INSTANTIATIONS(template, run_striped_avx2)

}  // namespace cudalign::engine::detail

#endif  // __AVX2__
