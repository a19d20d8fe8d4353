// Affine-gap scoring (paper §II).
//
// Convention: scores are signed and penalties enter negatively. A gap run of
// length L costs gap_first + (L-1)*gap_ext; the "gap opening" component is
// gap_open = gap_first - gap_ext (paper's G_open = G_first - G_ext). The
// paper's defaults (§V) are match=+1, mismatch=-3, G_first=5, G_ext=2.
#pragma once

#include "common/error.hpp"
#include "common/types.hpp"
#include "seq/alphabet.hpp"

namespace cudalign::scoring {

struct Scheme {
  Score match = 1;        ///< Added for an identical pair.
  Score mismatch = -3;    ///< Added for a differing pair.
  Score gap_first = 5;    ///< Penalty (positive magnitude) of a gap run's first symbol.
  Score gap_ext = 2;      ///< Penalty (positive magnitude) of each further gap symbol.

  /// G_open = G_first - G_ext; the adjustment when a gap run is split across
  /// a partition boundary (charged once, not twice).
  [[nodiscard]] constexpr Score gap_open() const noexcept { return gap_first - gap_ext; }

  /// Score of pairing bases a and b. N never matches anything, including N —
  /// the conservative convention for masked chromosome regions.
  [[nodiscard]] constexpr Score pair(seq::Base a, seq::Base b) const noexcept {
    return (a == b && a != seq::kN) ? match : mismatch;
  }

  /// Cost (negative) of a whole gap run of length len >= 1.
  [[nodiscard]] constexpr WideScore gap_run(WideScore len) const noexcept {
    return -(static_cast<WideScore>(gap_first) + (len - 1) * static_cast<WideScore>(gap_ext));
  }

  /// Throws unless the scheme is usable by every algorithm in this library:
  /// positive match, non-positive mismatch, gap_first >= gap_ext > 0.
  void validate() const {
    CUDALIGN_CHECK(match > 0, "match score must be positive");
    CUDALIGN_CHECK(mismatch <= 0, "mismatch score must be non-positive");
    CUDALIGN_CHECK(gap_ext > 0, "gap extension penalty must be positive");
    CUDALIGN_CHECK(gap_first >= gap_ext, "gap_first must be >= gap_ext (affine model)");
  }

  /// The exact parameter set used throughout the paper's evaluation (§V).
  static constexpr Scheme paper_defaults() noexcept { return Scheme{1, -3, 5, 2}; }

  friend bool operator==(const Scheme&, const Scheme&) = default;
};

}  // namespace cudalign::scoring
