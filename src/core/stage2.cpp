// Stage 2 (paper §IV-C): partial traceback.
//
// From the end point, the DP matrices are recomputed in the *reverse*
// direction with the global recurrence, one strip at a time: each iteration
// covers the rectangle between the current crosspoint and the nearest
// special row above it. Two of the paper's optimizations shape the code, and
// both live in cross_row, which Stage 3 shares for its special columns and
// Stage 4 for its middle rows:
//
//  * Orthogonal execution: the reverse computation runs along original
//    *columns* (implemented by handing the engine the transposed+reversed
//    problem, so "rows" of the engine problem are original columns). The
//    matching vector — the row to cross — is then the engine problem's final
//    column, delivered strip by strip as the rectified vertical bus; the run
//    stops at the first goal match, skipping the remaining area (Figure 7's
//    gray region).
//
//  * Goal-based matching: the optimal score through the current crosspoint is
//    known, so the matcher scans for equality (Hf + Hr == goal, or
//    Ff + Fr + G_open == goal for a gap crossing) instead of a full
//    maximum-search (Figure 6).
//
// The start point is detected with the engine's value probe (H == goal),
// enabled only when the goal is reachable inside the current rectangle — the
// paper's "only when the reverse alignment is near to its end" check.
//
// The paper's iterations form a chain: each starts from the crosspoint the
// previous one found. run_stage2 runs them in speculative waves instead.
// Each member of a wave reads its special row once, and the rightmost argmax
// of H on that row is the guessed start of the member above it; all members
// then cross at once. They commit in chain order: a member whose guess is
// not the crosspoint its predecessor found re-runs from the true one, and
// members above the start point are dropped. Every kept crossing ran from
// the start the serial chain would use, so the crosspoints, the special
// columns (put at commit, in iteration order) and the stage tally are the
// serial loop's.
#include <algorithm>
#include <memory>
#include <utility>

#include "common/timer.hpp"
#include "core/stages.hpp"
#include "obs/telemetry.hpp"

namespace cudalign::core {

RowCrossing cross_row(seq::SequenceView a_rev, seq::SequenceView b_rev, const Crosspoint& corner,
                      const Crosspoint& from, std::span<const engine::BusCell> forward, bool probe,
                      bool from_starts, bool prune, const engine::GridSpec& grid,
                      const scoring::Scheme& scheme, engine::Hooks hooks, ThreadPool* pool) {
  const Index height = from.i - corner.i;
  const Index width = from.j - corner.j;
  CUDALIGN_CHECK(height > 0 && width >= 0, "the row to cross must lie above the crosspoint");
  const Score goal = from.score - corner.score;

  // Transposed + reversed problem: engine rows are original columns
  // (orthogonal execution), the engine origin is `from`. Rows are
  // b[corner.j..from.j) reversed, columns a[corner.i..from.i) reversed.
  engine::ProblemSpec spec;
  spec.a = b_rev.subspan(b_rev.size() - static_cast<std::size_t>(from.j),
                         static_cast<std::size_t>(width));
  spec.b = a_rev.subspan(a_rev.size() - static_cast<std::size_t>(from.i),
                         static_cast<std::size_t>(height));
  const dp::CellState origin = transpose_state(from.type);
  spec.recurrence = from_starts ? engine::Recurrence::global_start(origin, scheme)
                                : engine::Recurrence::global_end(origin, scheme);
  spec.grid = grid;

  // Matching vector: the engine problem's final column == the row to cross.
  // Engine row r is original column from.j - r, forward entry width - r.
  std::optional<Crosspoint> hit;
  if (!forward.empty()) {
    CUDALIGN_CHECK(static_cast<Index>(forward.size()) > width,
                   "the forward row must cover every column of the rectangle");
    hooks.tap_columns = {height};
    hooks.on_tap = [&](Index /*col*/, Index first_row, std::span<const engine::BusCell> entries) {
      for (std::size_t k = 0; k < entries.size(); ++k) {
        const Index j = width - first_row - static_cast<Index>(k);
        const engine::BusCell& fwd = forward[static_cast<std::size_t>(j)];
        if (const auto state = junction(fwd, entries[k], goal, scheme, dp::CellState::kF)) {
          const Score prefix = *state == dp::CellState::kH ? fwd.h : fwd.gap;
          hit = Crosspoint{corner.i, corner.j + j, static_cast<Score>(corner.score + prefix),
                           *state};
          return engine::HookAction::kStop;
        }
      }
      return engine::HookAction::kContinue;
    };
  }

  // Start-point probe, enabled only when the goal is reachable inside this
  // rectangle (at most match * min(h, w) can be gained by any sub-path).
  if (probe && static_cast<WideScore>(scheme.match) * std::min(height, width) >= goal) {
    hooks.find_value = goal;
  }

  // Goal pruning: a path from engine vertex (r0, c0) gains at most match per
  // diagonal step before the row (engine column `height`) or the probe cell,
  // and the row adds at most its best junction value (0 for the probe).
  if (prune) {
    Score tail = forward.empty() ? kNegInf : best_junction(forward.first(width + 1), scheme);
    if (hooks.find_value) tail = std::max<Score>(tail, 0);
    spec.block_pruning = true;
    spec.goal = goal;
    spec.goal_reach = [&, tail](Index r0, Index c0) {
      return WideScore{scheme.match} * std::min(width - r0, height - c0) + tail;
    };
  }

  const engine::RunResult run = engine::run_wavefront(spec, hooks, pool);
  // The probe's engine cell (i_t, j_t) is the vertex (from.i - j_t, from.j - i_t).
  if (run.found) {
    hit = Crosspoint{from.i - run.found_j, from.j - run.found_i, corner.score, dp::CellState::kH};
  }
  return RowCrossing{hit, run.stats};
}

namespace {

/// One iteration of a Stage-2 wave: the crossing of special row `row` (of the
/// top rectangle when `forward` is empty) from `from`.
struct WaveMember {
  Index row = 0;
  std::vector<engine::BusCell> forward;  ///< The row's (H, F) per column.
  /// The rightmost argmax of H on the row: the next member's guessed start.
  Crosspoint guess;
  Crosspoint from;
  std::optional<RowCrossing> crossing;  ///< Set once it ran.
  /// The run's special columns in storage order, held until its commit.
  std::vector<std::pair<sra::RowKey, std::vector<engine::BusCell>>> columns;
};

std::int64_t row_bytes(const std::vector<engine::BusCell>& row) {
  return static_cast<std::int64_t>(row.size() * sizeof(engine::BusCell));
}

}  // namespace

Stage2Result run_stage2(seq::SequenceView s0, seq::SequenceView s1, const Crosspoint& end_point,
                        const Stage2Config& config) {
  config.scheme.validate();
  CUDALIGN_CHECK(config.rows_area != nullptr, "stage 2 requires the stage-1 special rows area");
  CUDALIGN_CHECK(end_point.type == dp::CellState::kH, "the end point always has type 0");
  Timer timer;
  Stage2Result result;
  const sra::SpecialRowsArea& rows_area = *config.rows_area;
  ThreadPool& pool = config.pool != nullptr ? *config.pool : ThreadPool::shared();

  // Stage-1 special rows above the end point, ascending by row: the loop
  // takes them from the back, nearest row first. The back `rows_left` are
  // still to cross.
  std::vector<std::size_t> row_ids = rows_area.group_members(kRowsGroup);
  std::erase_if(row_ids,
                [&](std::size_t id) { return rows_area.key(id).position >= end_point.i; });
  std::size_t rows_left = row_ids.size();

  // Budget for special columns: spread the columns area across the expected
  // iterations (one per partition). When an iteration's share cannot hold a
  // single column, that iteration saves none and Stage 4 absorbs the
  // partition instead — graceful degradation, never a budget violation.
  const Index expected_iterations = static_cast<Index>(row_ids.size()) + 1;
  const std::int64_t per_iter_budget =
      config.cols_area ? config.cols_area->budget_bytes() / expected_iterations : 0;

  // Both sequences reversed once: every iteration's problem is a view of
  // these, so the loop copies no sequence data.
  const std::vector<seq::Base> s0_rev(s0.rbegin(), s0.rend());
  const std::vector<seq::Base> s1_rev(s1.rbegin(), s1.rend());

  // Runs one iteration's crossing from m.from. Its special columns wait in
  // m.columns until its commit, which puts them.
  const auto cross = [&](WaveMember& m, Index iteration) {
    const Crosspoint from = m.from;
    const Index rect_h = from.i - m.row;
    const Index rect_w = from.j;
    engine::Hooks hooks;
    hooks.bus_audit = config.bus_audit;
    m.columns.clear();
    // Special columns for Stage 3 (the iteration's group is its partition's).
    if (config.cols_area && per_iter_budget >= 8 * (rect_h + 1) && rect_w > 0) {
      const std::int64_t group = kColsGroupBase + iteration;
      hooks.special_row_interval = sra::flush_interval_for_budget(
          rect_w, rect_h, config.grid.strip_rows(), per_iter_budget);
      hooks.on_special_row = [&, from, group](Index row_t, std::vector<engine::BusCell>& cells,
                                              const dp::LocalBest&, const engine::PruneState&) {
        // Engine row row_t == original column from.j - row_t; entry q maps to
        // original row from.i - q. Stored in original (ascending-row) order,
        // so the engine's buffer is reversed in place and taken.
        std::reverse(cells.begin(), cells.end());
        m.columns.emplace_back(sra::RowKey{from.j - row_t, m.row, from.i, group},
                               std::move(cells));
      };
    }
    m.crossing = cross_row(s0_rev, s1_rev, Crosspoint{m.row, 0, 0}, from, m.forward,
                           /*probe=*/true, /*from_starts=*/false, config.block_pruning,
                           config.grid, config.scheme, std::move(hooks), &pool);
  };

  std::vector<Crosspoint> reverse_chain{end_point};
  Crosspoint cur = end_point;
  Index iteration = 0;
  CUDALIGN_CHECK(cur.score > 0, "stage 2 needs a positive best score (empty alignments are "
                                "resolved by the pipeline before stage 2)");

  const std::int64_t cols_flushed_before =
      config.cols_area != nullptr ? config.cols_area->total_bytes_written() : 0;
  Stage2Speculation& spec = result.speculation;
  const auto discard = [&](const WaveMember& m) {
    if (!m.crossing) return;
    ++spec.discarded_iterations;
    spec.discarded_cells += m.crossing->run.cells;
  };

  // At most engine::kSpanBuckets spans, "iterations a-b", as Stage 1
  // buckets its retired strips: a span per iteration would grow the
  // report with the number of special rows. A bucket opens before the first
  // wave that starts in its range, so it times the waves' reads and runs,
  // not only their commits. Each iteration ends on the next special row up
  // (or at the start point), so expected_iterations bounds the chain.
  const Index bucket_size =
      (expected_iterations + engine::kSpanBuckets - 1) / engine::kSpanBuckets;
  Index bucket_end = 0;
  std::unique_ptr<obs::ScopedSpan> bucket_span;
  // Wave width: 1 for the end point's wave, doubling up to every pool
  // thread. An audited run crosses one row at a time (one auditor audits one
  // engine run at a time).
  const std::size_t max_width = config.bus_audit != nullptr ? 1 : pool.thread_count();
  std::size_t width = 1;
  while (cur.score > 0) {
    if (iteration >= bucket_end) {
      bucket_end = (iteration / bucket_size + 1) * bucket_size;
      const Index last = std::min(bucket_end, expected_iterations) - 1;
      bucket_span.reset();  // Closed before the next opens: buckets are siblings.
      bucket_span = std::make_unique<obs::ScopedSpan>(
          config.telemetry, "iterations " + std::to_string(iteration) + "-" + std::to_string(last));
    }
    // Member k crosses the k-th nearest remaining special row; a member past
    // the last row crosses the top rectangle, where only the start-point
    // probe can end the run. A first rectangle wide enough to keep every
    // pool thread busy on its own runs alone, on the whole pool.
    const Index first_row = rows_left > 0 ? rows_area.key(row_ids[rows_left - 1]).position : 0;
    const bool fills_pool = engine::fit_to_width(config.grid, cur.i - first_row).blocks >=
                            static_cast<Index>(pool.thread_count());
    const std::size_t count = std::min(fills_pool ? 1 : width, rows_left + 1);
    width = std::min(2 * width, max_width);
    std::vector<WaveMember> wave(count);

    // Read phase: each member reads its row once, applying the gap rule, and
    // takes the rightmost argmax of H as the next member's guessed start.
    pool.parallel_for(count, [&](std::size_t k) {
      if (k >= rows_left) return;
      WaveMember& m = wave[k];
      const std::size_t id = row_ids[rows_left - 1 - k];
      m.row = rows_area.key(id).position;
      m.forward = rows_area.get(id);
      std::size_t best = 0;
      for (std::size_t j = 0; j < m.forward.size(); ++j) {
        engine::BusCell& cell = m.forward[j];
        if (cell.h >= m.forward[best].h) best = j;
        // A vertical gap run crosses the row only from a positive forward
        // prefix: a non-positive one cannot be on an optimal path (trimming
        // it would improve the alignment). Local mode's rule, so Stage 2's
        // alone.
        if (cell.gap <= 0) cell.gap = kNegInf;
      }
      m.guess = Crosspoint{m.row, static_cast<Index>(best), m.forward[best].h, dp::CellState::kH};
    });
    wave[0].from = cur;
    for (std::size_t k = 1; k < count; ++k) wave[k].from = wave[k - 1].guess;

    // Cross phase: every member at once (a single member runs its engine on
    // the whole pool; in a wider wave each runs inline on its thread). A
    // guess with no score left cannot start a crossing.
    pool.parallel_for(count, [&](std::size_t k) {
      if (k > 0 && wave[k].from.score <= 0) return;
      cross(wave[k], iteration + static_cast<Index>(k));
    });

    // Commit in chain order: a member stands only if it started from the
    // crosspoint its predecessor found; otherwise it re-runs from there.
    for (std::size_t k = 0; k < count; ++k) {
      WaveMember& m = wave[k];
      if (k == 0) {
        ++spec.waves;
      } else if (m.crossing && m.from == cur) {
        ++spec.guess_hits;
      } else {
        discard(m);
        m.from = cur;
        cross(m, iteration);
        ++spec.reruns;
      }
      CUDALIGN_CHECK(m.crossing->next.has_value(),
                     "stage 2 found neither a crosspoint nor the start point — "
                     "goal-based matching invariant violated");
      result.stats.add_run(m.crossing->run);
      for (const auto& [key, cells] : m.columns) config.cols_area->put(key, cells);
      result.special_cols_saved += static_cast<Index>(m.columns.size());
      if (!m.forward.empty()) {
        --rows_left;
        ++result.stats.sra_rows_read;
        result.stats.sra_bytes_read += row_bytes(m.forward);
      }
      cur = *m.crossing->next;
      reverse_chain.push_back(cur);
      ++iteration;
      if (cur.score <= 0) {
        // The start point: every member above it is dropped.
        for (std::size_t d = k + 1; d < count; ++d) {
          discard(wave[d]);
          spec.discarded_bytes_read += row_bytes(wave[d].forward);
        }
        break;
      }
    }
  }

  result.crosspoints.assign(reverse_chain.rbegin(), reverse_chain.rend());
  result.stats.crosspoints = static_cast<Index>(result.crosspoints.size());
  if (config.cols_area != nullptr) {
    result.stats.sra_rows_flushed = result.special_cols_saved;
    result.stats.sra_bytes_flushed =
        config.cols_area->total_bytes_written() - cols_flushed_before;
  }
  result.stats.seconds = timer.seconds();
  return result;
}

}  // namespace cudalign::core
