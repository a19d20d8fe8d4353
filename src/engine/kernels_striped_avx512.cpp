// AVX-512BW striped backends — the only translation unit compiled with
// -mavx512bw.
//
// Same isolation contract as kernels_striped_avx2.cpp: the rest of the engine
// builds for the baseline ISA while this file provides 512-bit backends
// (64 x int8 / 32 x int16 / 16 x int32 lanes) behind a runtime CPU check. The
// dispatch in kernels_striped.cpp only calls these entry points after
// __builtin_cpu_supports("avx512bw") and avx512_kernels_compiled() both pass,
// so no AVX-512 instruction is ever reached on an older CPU. When the
// toolchain cannot target AVX-512BW the stubs keep the link whole and report
// "not compiled".
//
// BW is required (not just F): the byte/word saturating adds, subs and signed
// max used below are AVX-512BW instructions.
#include <cstdint>

#include "engine/kernel_detail.hpp"

#if defined(__AVX512BW__)

#include <immintrin.h>

#include "engine/striped_core.hpp"

namespace cudalign::engine::detail {

namespace {

/// v moved up kBytes bytes (kBytes <= 32, half a register), the vacated low
/// bytes taken from the top of `fill`. valignd over the [v | fill] pair moves
/// whole 128-bit blocks; for the remaining bytes alignr pulls each block's
/// low bytes from the block below it (one more valignd lines that up). One
/// byte-level helper serves every lane width with no index tables, and the
/// maskz forms keep GCC from passing an undefined vector through (see max
/// below).
template <int kBytes>
__m512i avx512_shift_up(__m512i v, __m512i fill) {
  static_assert(kBytes > 0 && kBytes <= 32);
  constexpr int kBlocks = kBytes / 16;
  constexpr int kRest = kBytes % 16;
  const __m512i blocks = [&] {
    if constexpr (kBlocks == 0) {
      return v;
    } else {
      return _mm512_maskz_alignr_epi32(0xFFFF, v, fill, 16 - 4 * kBlocks);
    }
  }();
  if constexpr (kRest == 0) {
    return blocks;
  } else {
    const __m512i below = _mm512_maskz_alignr_epi32(0xFFFF, v, fill, 12 - 4 * kBlocks);
    return _mm512_maskz_alignr_epi8(~__mmask64{0}, blocks, below, 16 - kRest);
  }
}

/// The largest lane of v, in log2(64 / sizeof(Lane)) steps of B::max: the
/// 256-bit halves swapped, the 128-bit blocks of each half swapped, then
/// byte shifts within each 128-bit block (the maskz shuffle keeps GCC from
/// passing an undefined vector through, as in avx512_shift_up).
template <typename B>
typename B::Lane avx512_hmax(__m512i v) {
  using Lane = typename B::Lane;
  v = B::max(v, _mm512_maskz_shuffle_i64x2(0xFF, v, v, 0x4E));
  v = B::max(v, _mm512_maskz_shuffle_i64x2(0xFF, v, v, 0xB1));
  v = B::max(v, _mm512_bsrli_epi128(v, 8));
  v = B::max(v, _mm512_bsrli_epi128(v, 4));
  if constexpr (sizeof(Lane) <= 2) v = B::max(v, _mm512_bsrli_epi128(v, 2));
  if constexpr (sizeof(Lane) <= 1) v = B::max(v, _mm512_bsrli_epi128(v, 1));
  return static_cast<Lane>(_mm512_cvtsi512_si32(v));
}

template <typename LaneT>
struct Avx512Backend;

template <>
struct Avx512Backend<std::int16_t> {
  using Lane = std::int16_t;
  static constexpr Index kLanes = 32;
  static constexpr Lane kNinfLane = -16384;
  using V = __m512i;

  static V load(const Lane* p) { return _mm512_loadu_si512(p); }
  static void store(Lane* p, V x) { _mm512_storeu_si512(p, x); }
  static V set1(Lane x) { return _mm512_set1_epi16(x); }
  static V zero() { return _mm512_setzero_si512(); }
  static V max(V a, V b) { return _mm512_max_epi16(a, b); }
  static V adds(V a, V b) { return _mm512_adds_epi16(a, b); }
  static V subs(V a, V b) { return _mm512_subs_epi16(a, b); }
  static V and_(V a, V b) { return _mm512_and_si512(a, b); }
  static V shift_in(V v, Lane x) { return avx512_shift_up<sizeof(Lane)>(v, set1(x)); }
  template <int kSt>
  static V shift_up(V v) {
    return avx512_shift_up<(sizeof(Lane) << kSt)>(v, set1(kNinfLane));
  }
  static Lane hmax(V v) { return avx512_hmax<Avx512Backend>(v); }
  static bool any_gt(V v, Lane x) { return _mm512_cmpgt_epi16_mask(v, set1(x)) != 0; }
};

template <>
struct Avx512Backend<std::int8_t> {
  using Lane = std::int8_t;
  static constexpr Index kLanes = 64;
  static constexpr Lane kNinfLane = -128;
  using V = __m512i;

  static V load(const Lane* p) { return _mm512_loadu_si512(p); }
  static void store(Lane* p, V x) { _mm512_storeu_si512(p, x); }
  static V set1(Lane x) { return _mm512_set1_epi8(static_cast<char>(x)); }
  static V zero() { return _mm512_setzero_si512(); }
  static V max(V a, V b) { return _mm512_max_epi8(a, b); }
  static V adds(V a, V b) { return _mm512_adds_epi8(a, b); }
  static V subs(V a, V b) { return _mm512_subs_epi8(a, b); }
  static V and_(V a, V b) { return _mm512_and_si512(a, b); }
  static V shift_in(V v, Lane x) { return avx512_shift_up<sizeof(Lane)>(v, set1(x)); }
  template <int kSt>
  static V shift_up(V v) {
    return avx512_shift_up<(sizeof(Lane) << kSt)>(v, set1(kNinfLane));
  }
  static Lane hmax(V v) { return avx512_hmax<Avx512Backend>(v); }
  static bool any_gt(V v, Lane x) { return _mm512_cmpgt_epi8_mask(v, set1(x)) != 0; }
};

/// int32 lanes (either mode): plain add/sub (see striped_core.hpp). The
/// compare yields a mask register; expanding it back to lanes stays in
/// AVX-512F (the movm form would need DQ).
template <>
struct Avx512Backend<std::int32_t> {
  using Lane = std::int32_t;
  static constexpr Index kLanes = 16;
  static constexpr Lane kNinfLane = kNegInf;
  using V = __m512i;

  static V load(const Lane* p) { return _mm512_loadu_si512(p); }
  static void store(Lane* p, V x) { _mm512_storeu_si512(p, x); }
  static V set1(Lane x) { return _mm512_set1_epi32(x); }
  static V zero() { return _mm512_setzero_si512(); }
  // The all-lanes masked form: GCC's plain _mm512_max_epi32 passes an
  // undefined pass-through vector that trips -Wmaybe-uninitialized.
  static V max(V a, V b) { return _mm512_maskz_max_epi32(0xFFFF, a, b); }
  static V adds(V a, V b) { return _mm512_add_epi32(a, b); }
  static V subs(V a, V b) { return _mm512_sub_epi32(a, b); }
  static V and_(V a, V b) { return _mm512_and_si512(a, b); }
  static V or_(V a, V b) { return _mm512_or_si512(a, b); }
  static V eq(V a, V b) { return _mm512_maskz_set1_epi32(_mm512_cmpeq_epi32_mask(a, b), -1); }
  static V shift_in(V v, Lane x) { return avx512_shift_up<sizeof(Lane)>(v, set1(x)); }
  template <int kSt>
  static V shift_up(V v) {
    return avx512_shift_up<(sizeof(Lane) << kSt)>(v, set1(kNinfLane));
  }
  static Lane hmax(V v) { return avx512_hmax<Avx512Backend>(v); }
  static bool any_gt(V v, Lane x) { return _mm512_cmpgt_epi32_mask(v, set1(x)) != 0; }
  static bool any_nonzero(V v) { return _mm512_test_epi32_mask(v, v) != 0; }
};

}  // namespace

bool avx512_kernels_compiled() noexcept { return true; }

BusInputs scan_bus_inputs_avx512(const TileJob& job) noexcept {
  struct Avx512Isa {};
  return scan_bus_inputs_for<Avx512Isa>(job);
}

template <typename LaneT, bool kLocal, bool kBest, bool kFind>
TileResult run_striped_avx512(const TileJob& job, TileScratch& scratch) {
  return run_striped_core<Avx512Backend<LaneT>, kLocal, kBest, kFind>(job, scratch);
}

CUDALIGN_STRIPED_ISA_INSTANTIATIONS(template, run_striped_avx512)

}  // namespace cudalign::engine::detail

#else  // !defined(__AVX512BW__)

namespace cudalign::engine::detail {

bool avx512_kernels_compiled() noexcept { return false; }

BusInputs scan_bus_inputs_avx512(const TileJob& job) noexcept {
  struct BaselineIsa {};
  return scan_bus_inputs_for<BaselineIsa>(job);
}

template <typename LaneT, bool kLocal, bool kBest, bool kFind>
TileResult run_striped_avx512(const TileJob& job, TileScratch& scratch) {
  (void)job;
  (void)scratch;
  CUDALIGN_CHECK(false, "AVX-512 striped kernel called but not compiled in");
  return TileResult{};
}

CUDALIGN_STRIPED_ISA_INSTANTIATIONS(template, run_striped_avx512)

}  // namespace cudalign::engine::detail

#endif  // __AVX512BW__
