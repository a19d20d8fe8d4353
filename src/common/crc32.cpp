#include "common/crc32.hpp"

#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define CUDALIGN_CRC32_CLMUL 1
#else
#define CUDALIGN_CRC32_CLMUL 0
#endif

namespace cudalign::common {

namespace {

#if CUDALIGN_CRC32_CLMUL

#define CUDALIGN_CLMUL_TARGET __attribute__((target("pclmul,sse2")))

CUDALIGN_CLMUL_TARGET inline __m128i load16(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// One fold step: x times the multipliers in k (high and low qwords), plus
/// the next 16 bytes.
CUDALIGN_CLMUL_TARGET inline __m128i fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x11), _mm_clmulepi64_si128(x, k, 0x00)), next);
}

/// Folds `len` bytes (a multiple of 16, at least 64) into the raw CRC
/// register `c` (the pre- and post-inverted value of crc32_update_table).
/// The constants are the bit-reflected x^k mod P(x) fold multipliers and
/// the Barrett pair of the IEEE polynomial from the Intel paper.
CUDALIGN_CLMUL_TARGET std::uint32_t clmul_fold(const unsigned char* buf, std::size_t len,
                                               std::uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(load16(buf), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load16(buf + 16);
  __m128i x3 = load16(buf + 32);
  __m128i x4 = load16(buf + 48);
  buf += 64;
  len -= 64;
  for (; len >= 64; buf += 64, len -= 64) {
    x1 = fold(x1, k1k2, load16(buf));
    x2 = fold(x2, k1k2, load16(buf + 16));
    x3 = fold(x3, k1k2, load16(buf + 32));
    x4 = fold(x4, k1k2, load16(buf + 48));
  }
  // Four lanes into one, then the remaining 16-byte blocks.
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; len >= 16; buf += 16, len -= 16) x1 = fold(x1, k3k4, load16(buf));

  // 128 -> 64 bits, then Barrett reduction to 32.
  __m128i x2r = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), x2r);
  x2r = _mm_srli_si128(x1, 4);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00), x2r);
  x2r = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  x2r = _mm_clmulepi64_si128(_mm_and_si128(x2r, low32), poly, 0x00);
  x1 = _mm_xor_si128(x1, x2r);
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

#endif  // CUDALIGN_CRC32_CLMUL

/// The dispatch decision, made once: the CPU has PCLMULQDQ and CUDALIGN_SIMD
/// does not force the portable "generic" baseline.
bool detect_hardware() noexcept {
#if CUDALIGN_CRC32_CLMUL
  const char* simd = std::getenv("CUDALIGN_SIMD");
  if (simd != nullptr && std::strcmp(simd, "generic") == 0) return false;
  return __builtin_cpu_supports("pclmul") != 0;
#else
  return false;
#endif
}

}  // namespace

bool crc32_hardware_active() noexcept {
  static const bool active = detect_hardware();
  return active;
}

std::uint32_t crc32_update(std::uint32_t crc, const void* data, std::size_t size) noexcept {
#if CUDALIGN_CRC32_CLMUL
  if (size >= 64 && crc32_hardware_active()) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    const std::size_t folded = size & ~std::size_t{15};
    const std::uint32_t c = clmul_fold(bytes, folded, crc ^ 0xFFFFFFFFu) ^ 0xFFFFFFFFu;
    return crc32_update_table(c, bytes + folded, size - folded);
  }
#endif
  return crc32_update_table(crc, data, size);
}

}  // namespace cudalign::common
