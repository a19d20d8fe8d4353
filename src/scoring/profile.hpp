// Query profile: precomputed substitution rows (SSW-style, arXiv:1208.6350).
//
// For a column-sequence segment b[c0..c1) the profile stores, contiguously
// per alphabet symbol sigma, the row
//
//   row(sigma)[k] = pair(sigma, b[c0 + k - 1])   for k in 1..w,
//
// so a row sweep of the DP replaces the per-cell match/mismatch branch with a
// single table load indexed by the loop counter — the layout every SIMD
// Smith-Waterman implementation builds before entering its inner loop. Rows
// are 1-based to line up with the tile kernels' H/F scratch indexing (index 0
// is the corner vertex and never scored).
//
// Profiles are built per tile into reusable scratch (O(|alphabet| * w) work
// against O(rows * w) cell updates), which keeps the memory footprint
// independent of the full problem width.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "scoring/scoring.hpp"
#include "seq/sequence.hpp"

namespace cudalign::scoring {

class QueryProfile {
 public:
  /// (Re)builds the profile for b[c0..c1). Reuses capacity across builds.
  void build(seq::SequenceView b, Index c0, Index c1, const Scheme& scheme);

  /// Substitution row for symbol `sym`; valid indices are 1..width().
  [[nodiscard]] const Score* row(seq::Base sym) const noexcept {
    return cells_.data() + static_cast<std::size_t>(sym) * stride_;
  }

  [[nodiscard]] Index width() const noexcept { return width_; }

 private:
  std::vector<Score> cells_;  ///< kAlphabetSize rows of stride_ entries each.
  std::size_t stride_ = 0;    ///< width_ + 1 (index 0 unused).
  Index width_ = 0;
};

/// Striped query profile (Farrar's layout, generalized per lane width).
///
/// The column segment b[c0..c1) is split into `lanes` contiguous stripes of
/// seg_len() = ceil(w / lanes) columns each; lane l owns columns
/// [l * seg_len, (l+1) * seg_len). Entry k * lanes + l of a row holds the
/// substitution score of 0-based segment column l * seg_len + k, so one
/// vector load at offset k * lanes fetches the scores of vector k for all
/// lanes at once — the layout the striped SIMD kernels sweep. Slots past the
/// real width (the pad stripes of the last lanes) are filled with `pad`, a
/// strongly losing score that keeps pad columns from ever producing a
/// competitive match.
///
/// LaneT is the kernel's lane type (int8_t / int16_t / int32_t); the
/// narrowing from Score is exact because the narrow striped kernels' range
/// prechecks admit only schemes whose penalties fit the lane envelope
/// (engine/kernel_detail.hpp), and int32_t does not narrow.
template <typename LaneT>
class StripedProfile {
 public:
  /// (Re)builds for b[c0..c1) striped over `lanes` lanes. Reuses capacity.
  void build(seq::SequenceView b, Index c0, Index c1, const Scheme& scheme, Index lanes,
             LaneT pad);

  /// Striped substitution row for symbol `sym`; padded_width() entries.
  [[nodiscard]] const LaneT* row(seq::Base sym) const noexcept {
    return cells_.data() + static_cast<std::size_t>(sym) * stride_;
  }

  [[nodiscard]] Index seg_len() const noexcept { return seg_len_; }
  [[nodiscard]] Index padded_width() const noexcept { return static_cast<Index>(stride_); }

 private:
  std::vector<LaneT> cells_;  ///< kAlphabetSize rows of stride_ entries each.
  std::size_t stride_ = 0;    ///< lanes * seg_len_ (pad slots included).
  Index seg_len_ = 0;

  // Rebuild-skip key. Stage-1 executors sweep one column chunk with many row
  // strips, so consecutive tiles usually stripe the same segment; comparing
  // the cached segment *contents* (not the pointer — scratch outlives runs,
  // so a recycled allocation could alias a stale pointer) makes the rebuild
  // a w-byte memcmp in the steady state. pair() reads only match/mismatch,
  // so those two scores complete the key.
  std::vector<seq::Base> key_seg_;
  Index key_lanes_ = -1;
  Score key_match_ = 0;
  Score key_mismatch_ = 0;
};

extern template class StripedProfile<std::int8_t>;
extern template class StripedProfile<std::int16_t>;
extern template class StripedProfile<std::int32_t>;

}  // namespace cudalign::scoring
