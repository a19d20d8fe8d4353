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
