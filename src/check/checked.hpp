// Checked integer arithmetic for score and index math.
//
// Narrow-lane DP is only trustworthy with explicit overflow handling (the SSW
// lesson): every narrowing conversion and every addition that could wrap must
// either be proven in range or checked at the site. These helpers make the
// checked form as terse as the unchecked one, so there is no excuse to write
// a naked static_cast in score arithmetic. All of them assert via
// CUDALIGN_ASSERT, so a failed bound always throws cudalign::Error (see
// contracts.hpp).
#pragma once

#include <limits>
#include <type_traits>
#include <utility>

#include "check/contracts.hpp"

namespace cudalign::check {

/// Integral-to-integral cast that asserts the value is representable in the
/// destination type. Use at every narrowing seam (Index -> int, Score ->
/// int16_t lane, size_t -> Index, ...).
template <typename To, typename From>
[[nodiscard]] constexpr To checked_cast(From value) {
  static_assert(std::is_integral_v<To> && std::is_integral_v<From>,
                "checked_cast is for integral conversions");
  CUDALIGN_ASSERT(std::in_range<To>(value), "checked_cast out of range: value ", +value,
                  " does not fit [", +std::numeric_limits<To>::min(), ", ",
                  +std::numeric_limits<To>::max(), "]");
  return static_cast<To>(value);
}

/// a + b, asserting the exact mathematical result fits T.
template <typename T>
[[nodiscard]] constexpr T checked_add(T a, T b) {
  static_assert(std::is_integral_v<T>, "checked_add is for integral arithmetic");
  T out{};
  const bool overflow = __builtin_add_overflow(a, b, &out);
  CUDALIGN_ASSERT(!overflow, "checked_add overflow: ", +a, " + ", +b);
  return out;
}

/// a - b, asserting the exact mathematical result fits T.
template <typename T>
[[nodiscard]] constexpr T checked_sub(T a, T b) {
  static_assert(std::is_integral_v<T>, "checked_sub is for integral arithmetic");
  T out{};
  const bool overflow = __builtin_sub_overflow(a, b, &out);
  CUDALIGN_ASSERT(!overflow, "checked_sub overflow: ", +a, " - ", +b);
  return out;
}

/// a * b, asserting the exact mathematical result fits T.
template <typename T>
[[nodiscard]] constexpr T checked_mul(T a, T b) {
  static_assert(std::is_integral_v<T>, "checked_mul is for integral arithmetic");
  T out{};
  const bool overflow = __builtin_mul_overflow(a, b, &out);
  CUDALIGN_ASSERT(!overflow, "checked_mul overflow: ", +a, " * ", +b);
  return out;
}

}  // namespace cudalign::check
