// Crosspoints and partitions (paper §IV-A).
//
// A crosspoint (i, j, score, type) is a DP vertex the optimal alignment
// passes through: `score` is the prefix score of the optimal alignment at
// that vertex and `type` is the path state there (0 = match/mismatch edge,
// 1 = gap in S0 / state E, 2 = gap in S1 / state F). Two successive
// crosspoints delimit a partition — an independent global sub-alignment of
// S0[i_s..i_e) x S1[j_s..j_e) entering in state type_s (with the gap-open
// discount) and leaving in state type_e, whose optimal score is
// score_e - score_s.
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <vector>

#include "check/checked.hpp"
#include "common/types.hpp"
#include "dp/dp_common.hpp"
#include "engine/kernels.hpp"
#include "scoring/scoring.hpp"
#include "seq/sequence.hpp"

namespace cudalign::core {

struct Crosspoint {
  Index i = 0;
  Index j = 0;
  Score score = 0;
  dp::CellState type = dp::CellState::kH;

  friend bool operator==(const Crosspoint&, const Crosspoint&) = default;
};

/// L_k: crosspoints ordered from the alignment start point (score 0, type 0)
/// to the end point (score = best, type 0).
using CrosspointList = std::vector<Crosspoint>;

struct Partition {
  Crosspoint start;
  Crosspoint end;

  [[nodiscard]] Index height() const noexcept { return check::checked_sub(end.i, start.i); }
  [[nodiscard]] Index width() const noexcept { return check::checked_sub(end.j, start.j); }
  /// The paper's partition size metric for Stage 4's maximum partition size.
  [[nodiscard]] Index size() const noexcept { return std::max(height(), width()); }
  [[nodiscard]] Score score() const noexcept { return end.score - start.score; }
};

/// The E<->F swap under matrix transposition (S0 and S1 exchanged).
[[nodiscard]] constexpr dp::CellState transpose_state(dp::CellState s) noexcept {
  switch (s) {
    case dp::CellState::kE: return dp::CellState::kF;
    case dp::CellState::kF: return dp::CellState::kE;
    case dp::CellState::kH:
    default: return dp::CellState::kH;
  }
}

/// Goal-based matching (paper Figure 6): the state in which an optimal path
/// of score `goal` crosses a line at a vertex with forward values `fwd` and
/// reverse values `rev`, whose gap entries hold the state `gap` running
/// across the line. H when Hf + Hr == goal; else `gap` when
/// Gf + Gr + G_open == goal (both halves charge the crossing run's opening;
/// adding G_open back counts it once); else none.
[[nodiscard]] inline std::optional<dp::CellState> junction(const engine::BusCell& fwd,
                                                           const engine::BusCell& rev, Score goal,
                                                           const scoring::Scheme& scheme,
                                                           dp::CellState gap) {
  if (!is_neg_inf(fwd.h) && !is_neg_inf(rev.h) && fwd.h + rev.h == goal) return dp::CellState::kH;
  if (!is_neg_inf(fwd.gap) && !is_neg_inf(rev.gap) &&
      fwd.gap + rev.gap + scheme.gap_open() == goal) {
    return gap;
  }
  return std::nullopt;
}

/// The most one side of a junction can contribute at a vertex: max(H,
/// gap + G_open), -inf values skipped (kNegInf when both are). A path
/// holding at most x at the vertex completes a junction there only if
/// x + junction_value >= goal. Goal pruning bounds its tiles with it.
[[nodiscard]] inline Score junction_value(const engine::BusCell& cell,
                                          const scoring::Scheme& scheme) {
  Score best = kNegInf;
  if (!is_neg_inf(cell.h)) best = cell.h;
  if (!is_neg_inf(cell.gap)) {
    best = std::max(best, static_cast<Score>(cell.gap + scheme.gap_open()));
  }
  return best;
}

/// junction_value's maximum over `cells` (kNegInf for none).
[[nodiscard]] inline Score best_junction(std::span<const engine::BusCell> cells,
                                         const scoring::Scheme& scheme) {
  Score best = kNegInf;
  for (const engine::BusCell& cell : cells) best = std::max(best, junction_value(cell, scheme));
  return best;
}

/// Consecutive pairs of a crosspoint list as partitions.
[[nodiscard]] std::vector<Partition> partitions_of(const CrosspointList& list);

/// Structural validation of a crosspoint chain: endpoints have type 0, the
/// start scores 0 and the end scores `best`, coordinates are monotone and
/// strictly advancing, and every partition's geometry is consistent with its
/// edge types (an E edge needs width, an F edge height). Throws on violation.
void validate_chain(const CrosspointList& list, Index m, Index n, Score best);

/// Deep validation (tests): additionally recomputes every partition's optimal
/// score by quadratic DP and checks it telescopes (score_e - score_s).
void validate_chain_scores(const CrosspointList& list, seq::SequenceView s0,
                           seq::SequenceView s1, const scoring::Scheme& scheme);

}  // namespace cudalign::core
