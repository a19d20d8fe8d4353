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
// Every sweep runs as engine tiles (engine::run_tile), so Stage 4 computes
// its cells with the same kernel family as Stages 1-3 — the striped int32
// global sweep wherever its envelope admits the tile. The implementation is
// iterative (a worklist, not recursion), which the paper notes is the
// GPU-friendly formulation.
#include <algorithm>
#include <deque>
#include <span>

#include "common/timer.hpp"
#include "core/stages.hpp"
#include "dp/linear.hpp"
#include "engine/executor.hpp"
#include "obs/telemetry.hpp"

namespace cudalign::core {

namespace {

/// Rows per tile of the orthogonal reverse pass over n rows: n / 16, kept
/// within [8, 64] (8 is the fewest rows the striped kernels are picked for).
/// The pass checks for the goal once per tile, so past the match it computes
/// less than one tile — at most 1/16 of the reverse half once n >= 128.
Index reverse_tile_rows(Index n) { return std::clamp<Index>(n / 16, 8, 64); }

struct SplitOutcome {
  Crosspoint mid;
  /// The split's tiles: cells, tile count and per-kernel tallies, folded
  /// into Stage 4's StageStats like an engine run.
  engine::RunStats stats;
};

/// A full-width tile sweep of one problem: a horizontal bus over columns
/// 0..n, seeded with the recurrence's row-0 boundary, advanced one chunk of
/// rows (r0, r1] at a time. After advance(), row_cell(r1, j) is the (H, F)
/// of vertex (r1, j) and vbus_out()[i - r0] the (H, E) of vertex (i, n) —
/// the rectified vertical bus at the last column.
///
/// The reverse corners of end types E and F (dp::end_corner) make the H of
/// column 0 or of row 0 a sentinel, which keeps striped32-global off every
/// tile that reads it. Such a column or row runs as its own one-wide tile,
/// so the tiles after it start from genuine H.
class TileSweep {
 public:
  TileSweep(seq::SequenceView a, seq::SequenceView b, const engine::Recurrence& rec,
            engine::RunStats& stats)
      : a_(a), b_(b), rec_(rec), stats_(stats), hbus_(b.size() + 1),
        split_col0_(b.size() > 1 && is_neg_inf(rec.left_boundary(1).h)),
        split_row0_(!b.empty() && is_neg_inf(rec.top_boundary(1).h)) {
    for (std::size_t j = 0; j < hbus_.size(); ++j) {
      hbus_[j] = rec_.top_boundary(static_cast<Index>(j));
    }
  }

  void advance(Index r0, Index r1) {
    vbus_in_.resize(static_cast<std::size_t>(r1 - r0) + 1);
    vbus_out_.resize(vbus_in_.size());
    for (Index i = r0; i <= r1; ++i) {
      vbus_in_[static_cast<std::size_t>(i - r0)] = rec_.left_boundary(i);
    }
    if (r0 == 0 && r1 > 1 && split_row0_) {
      run_rows(0, 0, 1);
      // The next tile publishes its corner (row 1) without E; keep row 1's.
      const engine::BusCell row1 = vbus_out_[1];
      run_rows(0, 1, r1);
      vbus_out_[1] = row1;
    } else {
      run_rows(r0, r0, r1);
    }
  }

  /// (H, F) of vertex (row, j) after advance(.., row): index 0 comes from
  /// the column-0 boundary, which no tile writes.
  [[nodiscard]] engine::BusCell row_cell(Index row, Index j) const {
    if (j == 0) return engine::BusCell{rec_.left_boundary(row).h, rec_.left_boundary_f(row)};
    return hbus_[static_cast<std::size_t>(j)];
  }
  [[nodiscard]] const std::vector<engine::BusCell>& vbus_out() const { return vbus_out_; }

 private:
  /// Rows (r0, r1] of the chunk starting at `base`, across the full width.
  void run_rows(Index base, Index r0, Index r1) {
    const auto rows = static_cast<std::size_t>(r1 - r0) + 1;
    const auto off = static_cast<std::size_t>(r0 - base);
    const std::span<const engine::BusCell> vin = std::span(vbus_in_).subspan(off, rows);
    const std::span<engine::BusCell> vout = std::span(vbus_out_).subspan(off, rows);
    const Index n = static_cast<Index>(b_.size());
    if (split_col0_) {
      vbus_mid_.resize(rows);
      run(r0, r1, 0, 1, vin, vbus_mid_);
      run(r0, r1, 1, n, vbus_mid_, vout);
    } else {
      run(r0, r1, 0, n, vin, vout);
    }
  }

  void run(Index r0, Index r1, Index c0, Index c1, std::span<const engine::BusCell> vin,
           std::span<engine::BusCell> vout) {
    engine::TileJob job;
    job.r0 = r0;
    job.r1 = r1;
    job.c0 = c0;
    job.c1 = c1;
    job.a = a_;
    job.b = b_;
    job.recurrence = &rec_;
    job.hbus = std::span(hbus_).subspan(static_cast<std::size_t>(c0),
                                        static_cast<std::size_t>(c1 - c0) + 1);
    job.vbus_in = vin;
    job.vbus_out = vout;
    // Per-worker scratch, as the wavefront executor keeps it.
    static thread_local engine::TileScratch scratch;
    const engine::TileResult tile = engine::run_tile(job, scratch);
    stats_.cells += tile.cells;
    ++stats_.tiles;
    auto& tally = stats_.kernels[static_cast<std::size_t>(tile.kernel)];
    ++tally.tiles;
    tally.cells += tile.cells;
  }

  seq::SequenceView a_, b_;
  const engine::Recurrence& rec_;
  engine::RunStats& stats_;
  std::vector<engine::BusCell> hbus_, vbus_in_, vbus_out_, vbus_mid_;
  bool split_col0_, split_row0_;
};

/// Splits `part` at the middle row of (sub0 x sub1). Sequences are the
/// partition's sub-views in the orientation chosen by the caller.
SplitOutcome split_by_row(seq::SequenceView sub0, seq::SequenceView sub1, const Partition& part,
                          const scoring::Scheme& scheme, bool orthogonal) {
  const Index m = static_cast<Index>(sub0.size());
  const Index n = static_cast<Index>(sub1.size());
  const Index mid = m / 2;
  CUDALIGN_ASSERT(mid >= 1 && mid < m);

  SplitOutcome out;
  // Forward half: one tile of `mid` rows; its published horizontal bus is
  // (CC, DD) = (H, F) at the middle row.
  const engine::Recurrence fwd_rec = engine::Recurrence::global_start(part.start.type, scheme);
  TileSweep fwd(sub0, sub1, fwd_rec, out.stats);
  fwd.advance(0, mid);
  std::vector<Score> cc(static_cast<std::size_t>(n) + 1), dd(cc.size());
  for (Index j = 0; j <= n; ++j) {
    const engine::BusCell cell = fwd.row_cell(mid, j);
    cc[static_cast<std::size_t>(j)] = cell.h;
    dd[static_cast<std::size_t>(j)] = cell.gap;
  }

  if (!orthogonal) {
    // Full reverse pass: one tile of the reversed bottom half, whose row
    // m - mid at column q is the original vertex (mid, n - q).
    const std::vector<seq::Base> ar(sub0.rbegin(),
                                    sub0.rbegin() + static_cast<std::ptrdiff_t>(m - mid));
    const std::vector<seq::Base> br(sub1.rbegin(), sub1.rend());
    const engine::Recurrence rev_rec = engine::Recurrence::global_end(part.end.type, scheme);
    TileSweep rev(ar, br, rev_rec, out.stats);
    rev.advance(0, m - mid);
    std::vector<Score> rr(cc.size()), ss(cc.size());
    for (Index j = 0; j <= n; ++j) {
      const engine::BusCell cell = rev.row_cell(m - mid, n - j);
      rr[static_cast<std::size_t>(j)] = cell.h;
      ss[static_cast<std::size_t>(j)] = cell.gap;
    }
    const dp::RowMatch match = dp::match_row(cc, dd, rr, ss, scheme);
    const dp::CellHEF at_mid{cc[static_cast<std::size_t>(match.j)], kNegInf,
                             dd[static_cast<std::size_t>(match.j)]};
    out.mid = Crosspoint{
        mid, match.j,
        static_cast<Score>(part.start.score + dp::value_in_state(at_mid, match.state)),
        match.state};
    return out;
  }

  // Orthogonal reverse pass: sweep original columns right-to-left. This is a
  // forward row sweep over the transposed+reversed suffix problem: its row r
  // is original column n - r, and its last column q* = m - mid is the middle
  // row, so the rectified vertical bus of each tile carries the original
  // vertex (mid, n - r) — H gives RR, E gives SS (the transposition maps the
  // original vertical-gap state F to E).
  const Score goal = part.score();
  const std::vector<seq::Base> a_t(sub1.rbegin(), sub1.rend());
  const std::vector<seq::Base> b_t(sub0.rbegin(),
                                   sub0.rbegin() + static_cast<std::ptrdiff_t>(m - mid));
  const engine::Recurrence rev_rec =
      engine::Recurrence::global_end(transpose_state(part.end.type), scheme);
  const auto q_star = m - mid;

  auto try_match = [&](Index r_t, Score rr, Score ss) -> std::optional<Crosspoint> {
    const Index j = n - r_t;
    const Score fcc = cc[static_cast<std::size_t>(j)];
    const Score fdd = dd[static_cast<std::size_t>(j)];
    if (!is_neg_inf(fcc) && !is_neg_inf(rr) && fcc + rr == goal) {
      return Crosspoint{mid, j, static_cast<Score>(part.start.score + fcc), dp::CellState::kH};
    }
    if (!is_neg_inf(fdd) && !is_neg_inf(ss) && fdd + ss + scheme.gap_open() == goal) {
      return Crosspoint{mid, j, static_cast<Score>(part.start.score + fdd), dp::CellState::kF};
    }
    return std::nullopt;
  };

  // Column n (the partition's right edge) is the transposed problem's row-0
  // boundary.
  if (auto cp = try_match(0, rev_rec.top_boundary(q_star).h, rev_rec.top_boundary_e(q_star))) {
    out.mid = *cp;
    return out;
  }
  TileSweep rev(a_t, b_t, rev_rec, out.stats);
  const Index chunk = reverse_tile_rows(n);
  for (Index r0 = 0; r0 < n; r0 += chunk) {
    const Index r1 = std::min(n, r0 + chunk);
    rev.advance(r0, r1);
    for (Index r_t = r0 + 1; r_t <= r1; ++r_t) {
      const engine::BusCell& cell = rev.vbus_out()[static_cast<std::size_t>(r_t - r0)];
      if (auto cp = try_match(r_t, cell.h, cell.gap)) {
        out.mid = *cp;
        return out;
      }
    }
  }
  CUDALIGN_CHECK(false, "stage 4 orthogonal matching exhausted all columns without reaching "
                        "the goal score (partition " + std::to_string(m) + "x" +
                        std::to_string(n) + " start type " +
                        std::to_string(static_cast<int>(part.start.type)) + " end type " +
                        std::to_string(static_cast<int>(part.end.type)) + " goal " +
                        std::to_string(goal) + ")");
}

/// Transposes a partition into (S1 x S0) coordinates.
Partition transpose_partition(const Partition& p) {
  return Partition{Crosspoint{p.start.j, p.start.i, p.start.score, transpose_state(p.start.type)},
                   Crosspoint{p.end.j, p.end.i, p.end.score, transpose_state(p.end.type)}};
}

}  // namespace

Stage4Result run_stage4(seq::SequenceView s0, seq::SequenceView s1, const CrosspointList& l3,
                        const Stage4Config& config) {
  config.scheme.validate();
  CUDALIGN_CHECK(config.max_partition_size >= 2, "maximum partition size must be at least 2");
  Timer timer;
  Stage4Result result;

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
    std::vector<Crosspoint> mids(oversized.size());
    ThreadPool& pool = config.pool ? *config.pool : ThreadPool::shared();
    pool.parallel_for(oversized.size(), [&](std::size_t idx) {
      const Partition& p = oversized[idx];
      // Balanced splitting picks the largest dimension; the classic MM
      // baseline always splits by row (when it can).
      const bool by_row = config.balanced_splitting ? p.height() >= p.width() : p.height() >= 2;
      if (by_row) {
        const auto sub0 = s0.subspan(static_cast<std::size_t>(p.start.i),
                                     static_cast<std::size_t>(p.height()));
        const auto sub1 = s1.subspan(static_cast<std::size_t>(p.start.j),
                                     static_cast<std::size_t>(p.width()));
        outcomes[idx] = split_by_row(sub0, sub1, p, config.scheme, config.orthogonal);
        const SplitOutcome& split = outcomes[idx];
        mids[idx] = Crosspoint{p.start.i + split.mid.i, p.start.j + split.mid.j, split.mid.score,
                               split.mid.type};
      } else {
        const Partition tp = transpose_partition(p);
        const auto sub0 = s1.subspan(static_cast<std::size_t>(tp.start.i),
                                     static_cast<std::size_t>(tp.height()));
        const auto sub1 = s0.subspan(static_cast<std::size_t>(tp.start.j),
                                     static_cast<std::size_t>(tp.width()));
        outcomes[idx] = split_by_row(sub0, sub1, tp, config.scheme, config.orthogonal);
        const SplitOutcome& split = outcomes[idx];
        mids[idx] = Crosspoint{p.start.i + split.mid.j, p.start.j + split.mid.i, split.mid.score,
                               transpose_state(split.mid.type)};
      }
    });
    for (std::size_t idx = 0; idx < oversized.size(); ++idx) {
      it.cells += outcomes[idx].stats.cells;
      result.stats.add_run(outcomes[idx].stats);
      collected.push_back(mids[idx]);
      next.push_back(Partition{oversized[idx].start, mids[idx]});
      next.push_back(Partition{mids[idx], oversized[idx].end});
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
