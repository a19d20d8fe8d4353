// Linear-space DP sweeps (O(n) memory, O(mn) time).
//
// These are the building blocks of Myers-Miller (paper §II-B) and of the
// reference implementations the engine is tested against: a row-major sweep
// that keeps only one row of (H, E, F) live and can expose each completed row
// to a visitor (the engine's "special row" flush is exactly such a visit).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "dp/dp_common.hpp"
#include "dp/gotoh.hpp"
#include "seq/sequence.hpp"

namespace cudalign::dp {

/// One completed DP row: index i plus the H/E/F vectors over j = 0..n.
/// Spans are valid only during the visitor call.
struct RowView {
  Index i = 0;
  std::span<const Score> h;
  std::span<const Score> e;
  std::span<const Score> f;
};

using RowVisitor = std::function<void(const RowView&)>;

/// Final row (i = m) of a sweep; h[j] = H(m, j) etc.
struct RowVectors {
  std::vector<Score> h;
  std::vector<Score> e;
  std::vector<Score> f;
};

/// Sweeps all rows. In kGlobal mode the corner is seeded by
/// start_corner(start); in kLocal mode H floors at 0 (start must be kH).
/// `visit` (optional) observes every row i = 0..m, including the boundary.
[[nodiscard]] RowVectors sweep_rows(seq::SequenceView a, seq::SequenceView b,
                                    const scoring::Scheme& scheme, AlignMode mode,
                                    CellState start = CellState::kH,
                                    const RowVisitor& visit = nullptr);

/// Global sweep from an explicit corner seed.
[[nodiscard]] RowVectors sweep_rows_from(seq::SequenceView a, seq::SequenceView b,
                                         const scoring::Scheme& scheme, CellHEF corner,
                                         const RowVisitor& visit = nullptr);

/// Best local score and its end vertex in O(n) memory; ties break toward the
/// smallest (i, j) row-major — the engine must agree with this.
[[nodiscard]] LocalBest linear_local_best(seq::SequenceView a, seq::SequenceView b,
                                          const scoring::Scheme& scheme);

/// Myers-Miller forward vectors at row `mid` (0 <= mid <= m): CC(j) = H(mid, j),
/// DD(j) = F(mid, j) — the pair matched against a reverse sweep (Formula 4).
struct MiddleRow {
  std::vector<Score> cc;
  std::vector<Score> dd;
};

[[nodiscard]] MiddleRow forward_to_row(seq::SequenceView a, seq::SequenceView b, Index mid,
                                       const scoring::Scheme& scheme,
                                       CellState start = CellState::kH);

/// Reverse counterpart: RR(j) = best score of a path from vertex (mid, j) to
/// (m, n) that ends in state `end`; SS(j) additionally leaves (mid, j)
/// downward inside a vertical gap run (charged as a fresh run; the matcher
/// repairs the double-open with +gap_open). Computed by a forward sweep over
/// the reversed suffixes.
[[nodiscard]] MiddleRow reverse_to_row(seq::SequenceView a, seq::SequenceView b, Index mid,
                                       const scoring::Scheme& scheme,
                                       CellState end = CellState::kH);

/// Myers-Miller matching (Formula 4 with signed scores): returns the column
/// j* and the state (kH or kF) maximizing CC(j)+RR(j) vs DD(j)+SS(j)+gap_open.
struct RowMatch {
  Index j = 0;
  CellState state = CellState::kH;
  Score score = kNegInf;  ///< The matched total (after the +gap_open repair).
};

[[nodiscard]] RowMatch match_row(std::span<const Score> cc, std::span<const Score> dd,
                                 std::span<const Score> rr, std::span<const Score> ss,
                                 const scoring::Scheme& scheme);

}  // namespace cudalign::dp
