#include "dp/linear.hpp"

#include <algorithm>

namespace cudalign::dp {

namespace {

/// The one rolling-row sweep: seeds row 0 from `corner`, then advances row by
/// row keeping a single live (H, E, F) row, showing each row (0..m) to `visit`.
RowVectors sweep(seq::SequenceView a, seq::SequenceView b, const scoring::Scheme& scheme,
                 AlignMode mode, CellHEF corner, const RowVisitor& visit) {
  scheme.validate();
  const bool local = mode == AlignMode::kLocal;
  const std::size_t n = b.size();
  RowVectors row{std::vector<Score>(n + 1, kNegInf), std::vector<Score>(n + 1, kNegInf),
                 std::vector<Score>(n + 1, kNegInf)};
  std::vector<Score>& h = row.h;
  std::vector<Score>& e = row.e;
  std::vector<Score>& f = row.f;
  h[0] = corner.h;
  e[0] = corner.e;
  f[0] = corner.f;
  for (std::size_t j = 1; j <= n; ++j) {
    e[j] = std::max(sat_add(e[j - 1], -scheme.gap_ext), sat_add(h[j - 1], -scheme.gap_first));
    h[j] = local ? std::max<Score>(0, e[j]) : e[j];
  }
  const auto show = [&](Index i) {
    if (visit) visit(RowView{i, h, e, f});
  };
  show(0);
  const Index m = static_cast<Index>(a.size());
  for (Index i = 1; i <= m; ++i) {
    const seq::Base ai = a[static_cast<std::size_t>(i - 1)];
    // Column-0 boundary.
    Score diag_h = h[0];  // H(i-1, 0) before overwrite.
    f[0] = std::max(sat_add(f[0], -scheme.gap_ext), sat_add(h[0], -scheme.gap_first));
    e[0] = kNegInf;
    h[0] = local ? std::max<Score>(0, f[0]) : f[0];
    Score e_run = kNegInf;
    for (std::size_t j = 1; j <= n; ++j) {
      const Score up_h = h[j];  // H(i-1, j).
      const Score new_f =
          std::max(sat_add(f[j], -scheme.gap_ext), sat_add(up_h, -scheme.gap_first));
      const Score new_e =
          std::max(sat_add(e_run, -scheme.gap_ext), sat_add(h[j - 1], -scheme.gap_first));
      Score new_h = std::max(new_e, new_f);
      new_h = std::max(new_h, sat_add(diag_h, scheme.pair(ai, b[j - 1])));
      if (local) new_h = std::max<Score>(new_h, 0);
      diag_h = up_h;
      h[j] = new_h;
      f[j] = new_f;
      e[j] = new_e;
      e_run = new_e;
    }
    show(i);
  }
  return row;
}

}  // namespace

RowVectors sweep_rows(seq::SequenceView a, seq::SequenceView b, const scoring::Scheme& scheme,
                      AlignMode mode, CellState start, const RowVisitor& visit) {
  CUDALIGN_CHECK(mode == AlignMode::kGlobal || start == CellState::kH,
                 "local alignment has no start-state constraint");
  const CellHEF corner =
      mode == AlignMode::kLocal ? CellHEF{0, kNegInf, kNegInf} : start_corner(start);
  return sweep(a, b, scheme, mode, corner, visit);
}

RowVectors sweep_rows_from(seq::SequenceView a, seq::SequenceView b,
                           const scoring::Scheme& scheme, CellHEF corner,
                           const RowVisitor& visit) {
  return sweep(a, b, scheme, AlignMode::kGlobal, corner, visit);
}

LocalBest linear_local_best(seq::SequenceView a, seq::SequenceView b,
                            const scoring::Scheme& scheme) {
  LocalBest best;
  (void)sweep_rows(a, b, scheme, AlignMode::kLocal, CellState::kH, [&](const RowView& row) {
    for (std::size_t j = 0; j < row.h.size(); ++j) {
      if (row.h[j] > best.score) {
        best.score = row.h[j];
        best.i = row.i;
        best.j = static_cast<Index>(j);
      }
    }
  });
  return best;
}

MiddleRow forward_to_row(seq::SequenceView a, seq::SequenceView b, Index mid,
                         const scoring::Scheme& scheme, CellState start) {
  CUDALIGN_CHECK(0 <= mid && mid <= static_cast<Index>(a.size()), "mid row out of range");
  MiddleRow out;
  const auto prefix = a.subspan(0, static_cast<std::size_t>(mid));
  auto vectors = sweep_rows(prefix, b, scheme, AlignMode::kGlobal, start);
  out.cc = std::move(vectors.h);
  out.dd = std::move(vectors.f);
  return out;
}

MiddleRow reverse_to_row(seq::SequenceView a, seq::SequenceView b, Index mid,
                         const scoring::Scheme& scheme, CellState end) {
  const Index m = static_cast<Index>(a.size());
  const Index n = static_cast<Index>(b.size());
  CUDALIGN_CHECK(0 <= mid && mid <= m, "mid row out of range");
  // Reverse suffixes: a' = reverse(a[mid..m)), b' = reverse(b). The reverse
  // problem's start corner is the original end vertex (m, n); its start state
  // is the original end-state constraint.
  std::vector<seq::Base> ar(a.rbegin(), a.rbegin() + static_cast<std::ptrdiff_t>(m - mid));
  std::vector<seq::Base> br(b.rbegin(), b.rend());
  auto vectors = sweep_rows_from(ar, br, scheme, end_corner(end, scheme));
  // vectors.h[q] = best path from vertex (mid, n - q) to (m, n); re-index so
  // rr[j] corresponds to original column j.
  MiddleRow out;
  out.cc.resize(static_cast<std::size_t>(n + 1));
  out.dd.resize(static_cast<std::size_t>(n + 1));
  for (Index j = 0; j <= n; ++j) {
    out.cc[static_cast<std::size_t>(j)] = vectors.h[static_cast<std::size_t>(n - j)];
    out.dd[static_cast<std::size_t>(j)] = vectors.f[static_cast<std::size_t>(n - j)];
  }
  return out;
}

RowMatch match_row(std::span<const Score> cc, std::span<const Score> dd,
                   std::span<const Score> rr, std::span<const Score> ss,
                   const scoring::Scheme& scheme) {
  CUDALIGN_CHECK(cc.size() == rr.size() && dd.size() == ss.size() && cc.size() == dd.size(),
                 "row matching requires equal-length vectors");
  RowMatch best;
  for (std::size_t j = 0; j < cc.size(); ++j) {
    const Score via_h = (is_neg_inf(cc[j]) || is_neg_inf(rr[j]))
                            ? kNegInf
                            : static_cast<Score>(cc[j] + rr[j]);
    if (via_h > best.score) {
      best.score = via_h;
      best.j = static_cast<Index>(j);
      best.state = CellState::kH;
    }
    const Score via_f = (is_neg_inf(dd[j]) || is_neg_inf(ss[j]))
                            ? kNegInf
                            : static_cast<Score>(dd[j] + ss[j] + scheme.gap_open());
    if (via_f > best.score) {
      best.score = via_f;
      best.j = static_cast<Index>(j);
      best.state = CellState::kF;
    }
  }
  CUDALIGN_CHECK(!is_neg_inf(best.score), "row matching found no finite junction");
  return best;
}

}  // namespace cudalign::dp
