// Stage 4 (paper §IV-E): Myers-Miller with balanced splitting and orthogonal
// execution, iterated on the CPU until every partition's largest dimension is
// at most the maximum partition size.
//
//  * Balanced splitting (Figure 10): a partition is halved across its largest
//    dimension — by the middle row when height >= width, otherwise by the
//    middle column (implemented by transposing the sub-problem) — so narrow
//    partitions cannot keep a disproportional dimension across iterations.
//
//  * Orthogonal execution (the paper's 25% expectation): the forward pass
//    computes the top half fully (CC, DD at the middle row); the reverse pass
//    runs column-major from the right edge and stops at the first column
//    whose junction reaches the goal score — on average half of the bottom
//    half is skipped.
//
// Every sweep is an engine run (engine::run_wavefront on a grid sized from
// the split), so Stage 4 computes its cells with the same executor and
// kernel family as Stages 1-3 — the striped int32 global sweep wherever its
// envelope admits the tile — and crosses the middle row with Stage 2's
// cross_row. The forward half and the orthogonal reverse pass skip the tiles
// no path can cross at the partition's goal (Stage4Config::block_pruning).
//
// The implementation is iterative (a worklist, not recursion), which the
// paper notes is the GPU-friendly formulation.
#include <algorithm>
#include <deque>
#include <span>

#include "common/timer.hpp"
#include "core/stages.hpp"
#include "dp/linear.hpp"
#include "engine/executor.hpp"
#include "engine/kernel_registry.hpp"
#include "obs/telemetry.hpp"

namespace cudalign::core {

namespace {

/// Column chunks of a split's engine runs: at least 64 columns wide, so goal
/// pruning has tiles to skip beside the path.
constexpr Index kChunkCols = 64;
constexpr Index kMaxChunks = 1024;

/// The forward half's grid: 64-row strips.
constexpr engine::GridSpec kForwardGrid{kMaxChunks, 64, 1, kChunkCols};

/// The orthogonal reverse pass's grid over n rows: strips of n / 16 rows,
/// kept within [kShapeGateMinRows, 64] (the shape gate's row minimum, so
/// every strip is tall enough for the striped kernels). The pass checks for
/// the goal once per strip, so past the match it computes less than one
/// strip — at most 1/16 of the reverse half once n >= 128.
engine::GridSpec reverse_grid(Index n) {
  return engine::GridSpec{kMaxChunks, std::clamp<Index>(n / 16, engine::kShapeGateMinRows, 64),
                          1, kChunkCols};
}

struct SplitOutcome {
  Crosspoint mid;
  /// The split's two engine runs (forward half, reverse pass), folded into
  /// Stage 4's StageStats like every other stage's runs.
  engine::RunStats fwd, rev;
};

/// `s[from, from + len)` as a view.
seq::SequenceView slice(seq::SequenceView s, Index from, Index len) {
  return s.subspan(static_cast<std::size_t>(from), static_cast<std::size_t>(len));
}

/// Splits `part` at its middle row. `a` (rows) and `b` (columns) are the
/// whole sequences in the orientation the caller chose, `a_rev` and `b_rev`
/// their reversals, and `part` and the returned crosspoint are in the same
/// coordinates.
SplitOutcome split_by_row(seq::SequenceView a, seq::SequenceView a_rev, seq::SequenceView b,
                          seq::SequenceView b_rev, const Partition& part,
                          const Stage4Config& config) {
  const scoring::Scheme& scheme = config.scheme;
  const Index m = part.height();
  const Index n = part.width();
  const Index mid = m / 2;
  CUDALIGN_ASSERT(mid >= 1 && mid < m);
  SplitOutcome out;

  // Forward half, transposed: engine row j is partition column j and the
  // last engine column, `mid`, the middle row, so on_tap carries (CC, DD) =
  // (H, F) of vertex (mid, j) — the transposition maps F to E. Entry 0 is
  // the row-0 delivery.
  engine::ProblemSpec fwd;
  fwd.a = slice(b, part.start.j, n);
  fwd.b = slice(a, part.start.i, mid);
  fwd.recurrence = engine::Recurrence::global_start(transpose_state(part.start.type), scheme);
  fwd.grid = kForwardGrid;
  if (config.block_pruning) {
    // Goal pruning: engine vertex (r0, c0) is partition vertex (c0, r0), and a
    // path from there to the partition's end gains at most match per
    // diagonal step.
    fwd.block_pruning = true;
    fwd.goal = part.score();
    fwd.goal_reach = [&](Index r0, Index c0) {
      return WideScore{scheme.match} * std::min(m - c0, n - r0);
    };
  }
  std::vector<engine::BusCell> cc_dd;
  cc_dd.reserve(static_cast<std::size_t>(n) + 1);
  engine::Hooks hooks;
  hooks.on_tap = [&](Index, std::span<const engine::BusCell> entries) {
    cc_dd.insert(cc_dd.end(), entries.begin(), entries.end());
    return engine::HookAction::kContinue;
  };
  out.fwd = engine::run_wavefront(fwd, hooks, config.pool).stats;

  // Orthogonal reverse pass over the bottom half: columns right-to-left in
  // short strips, stopping at the first goal-reaching junction.
  if (config.orthogonal) {
    const RowCrossing crossing =
        cross_row(a_rev, b_rev, Crosspoint{part.start.i + mid, part.start.j, part.start.score},
                  part.end, cc_dd, /*probe=*/false, /*from_starts=*/false,
                  config.block_pruning, reverse_grid(n), scheme, {}, config.pool);
    out.rev = crossing.run;
    CUDALIGN_CHECK(crossing.next.has_value(),
                   "stage 4 orthogonal matching reached no goal column (partition ", m, "x", n,
                   " start type ", static_cast<int>(part.start.type), " end type ",
                   static_cast<int>(part.end.type), " goal ", part.score(), ")");
    out.mid = *crossing.next;
    return out;
  }

  // The full reverse pass (the ablation), transposed and reversed: engine row
  // r is partition column n - r and the last engine column, q* = m - mid,
  // the middle row, so on_tap carries (RR, SS) of vertex (mid, n - r). It
  // collects the whole row for dp::match_row's maximum search.
  const Index q_star = m - mid;
  engine::ProblemSpec rev;
  rev.a = slice(b_rev, static_cast<Index>(b.size()) - part.end.j, n);
  rev.b = slice(a_rev, static_cast<Index>(a.size()) - part.end.i, q_star);
  rev.recurrence = engine::Recurrence::global_end(transpose_state(part.end.type), scheme);
  rev.grid = engine::GridSpec{1, std::max<Index>(n, 1), 1, 1};
  std::vector<engine::BusCell> rr_ss;  // Entry r: partition column n - r.
  hooks.on_tap = [&](Index, std::span<const engine::BusCell> entries) {
    rr_ss.insert(rr_ss.end(), entries.begin(), entries.end());
    return engine::HookAction::kContinue;
  };
  out.rev = engine::run_wavefront(rev, hooks, config.pool).stats;

  std::vector<Score> cc(cc_dd.size()), dd(cc.size()), rr(cc.size()), ss(cc.size());
  for (std::size_t j = 0; j < cc.size(); ++j) {
    cc[j] = cc_dd[j].h;
    dd[j] = cc_dd[j].gap;
    rr[j] = rr_ss[cc.size() - 1 - j].h;
    ss[j] = rr_ss[cc.size() - 1 - j].gap;
  }
  const dp::RowMatch match = dp::match_row(cc, dd, rr, ss, scheme);
  const auto j = static_cast<std::size_t>(match.j);
  const Score prefix = match.state == dp::CellState::kH ? cc[j] : dd[j];
  out.mid = Crosspoint{part.start.i + mid, part.start.j + match.j,
                       static_cast<Score>(part.start.score + prefix), match.state};
  return out;
}

/// A crosspoint in (S1 x S0) coordinates, and back.
Crosspoint transpose(const Crosspoint& c) {
  return Crosspoint{c.j, c.i, c.score, transpose_state(c.type)};
}

}  // namespace

Stage4Result run_stage4(seq::SequenceView s0, seq::SequenceView s1, const CrosspointList& l3,
                        const Stage4Config& config) {
  config.scheme.validate();
  CUDALIGN_CHECK(config.max_partition_size >= 2, "maximum partition size must be at least 2");
  Timer timer;
  Stage4Result result;

  // Both sequences reversed once: every split's reverse pass is a view of
  // these, so the iterations copy no sequence data.
  const std::vector<seq::Base> s0_rev(s0.rbegin(), s0.rend());
  const std::vector<seq::Base> s1_rev(s1.rbegin(), s1.rend());

  std::deque<Partition> work;
  for (const Partition& p : partitions_of(l3)) work.push_back(p);
  std::vector<Crosspoint> collected{l3.begin(), l3.end()};

  Index iteration = 0;
  for (;;) {
    Index h_max = 0, w_max = 0;
    bool any_oversized = false;
    for (const Partition& p : work) {
      h_max = std::max(h_max, p.height());
      w_max = std::max(w_max, p.width());
      if (p.size() > config.max_partition_size) any_oversized = true;
    }
    if (!any_oversized) break;

    Stage4Iteration it;
    it.iteration = ++iteration;
    it.h_max = h_max;
    it.w_max = w_max;
    it.crosspoints = static_cast<Index>(collected.size());
    obs::ScopedSpan iter_span(config.telemetry, "iteration " + std::to_string(iteration));
    Timer iter_timer;

    // Partitions are independent (paper §IV-E: "they can be processed in
    // parallel" — Stage 4 runs on the CPU "using multiple threads").
    std::deque<Partition> next;
    std::vector<Partition> oversized;
    while (!work.empty()) {
      Partition p = work.front();
      work.pop_front();
      if (p.size() <= config.max_partition_size) {
        next.push_back(p);
      } else {
        oversized.push_back(p);
      }
    }

    std::vector<SplitOutcome> outcomes(oversized.size());
    ThreadPool& pool = config.pool ? *config.pool : ThreadPool::shared();
    pool.parallel_for(oversized.size(), [&](std::size_t idx) {
      const Partition& p = oversized[idx];
      // Balanced splitting picks the largest dimension; the classic MM
      // baseline always splits by row (when it can).
      const bool by_row = config.balanced_splitting ? p.height() >= p.width() : p.height() >= 2;
      if (by_row) {
        outcomes[idx] = split_by_row(s0, s0_rev, s1, s1_rev, p, config);
      } else {
        outcomes[idx] = split_by_row(s1, s1_rev, s0, s0_rev,
                                     Partition{transpose(p.start), transpose(p.end)}, config);
        outcomes[idx].mid = transpose(outcomes[idx].mid);
      }
    });
    for (std::size_t idx = 0; idx < oversized.size(); ++idx) {
      const SplitOutcome& split = outcomes[idx];
      it.cells += split.fwd.cells + split.rev.cells;
      result.stats.add_run(split.fwd);
      result.stats.add_run(split.rev);
      collected.push_back(split.mid);
      next.push_back(Partition{oversized[idx].start, split.mid});
      next.push_back(Partition{split.mid, oversized[idx].end});
    }
    work = std::move(next);
    it.seconds = iter_timer.seconds();
    result.iterations.push_back(it);
  }

  std::sort(collected.begin(), collected.end(), [](const Crosspoint& a, const Crosspoint& b) {
    if (a.i != b.i) return a.i < b.i;
    return a.j < b.j;
  });
  collected.erase(std::unique(collected.begin(), collected.end()), collected.end());
  result.crosspoints = std::move(collected);
  result.stats.crosspoints = static_cast<Index>(result.crosspoints.size());
  result.stats.seconds = timer.seconds();
  return result;
}

}  // namespace cudalign::core
