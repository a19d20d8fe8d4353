// Stage 2 (paper §IV-C): partial traceback.
//
// From the end point, the DP matrices are recomputed in the *reverse*
// direction with the global recurrence, one strip at a time: each iteration
// covers the rectangle between the current crosspoint and the nearest
// special row above it. Two of the paper's optimizations shape the code, and
// both live in cross_row, which Stage 4 shares for its middle rows:
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
#include <algorithm>
#include <memory>

#include "common/timer.hpp"
#include "core/stages.hpp"
#include "obs/telemetry.hpp"

namespace cudalign::core {

RowCrossing cross_row(seq::SequenceView a_rev, seq::SequenceView b_rev, const Crosspoint& corner,
                      const Crosspoint& from, std::span<const engine::BusCell> forward, bool probe,
                      const engine::GridSpec& grid, const scoring::Scheme& scheme,
                      engine::Hooks hooks, ThreadPool* pool) {
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
  spec.recurrence = engine::Recurrence::global_end(transpose_state(from.type), scheme);
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

  const engine::RunResult run = engine::run_wavefront(spec, hooks, pool);
  // The probe's engine cell (i_t, j_t) is the vertex (from.i - j_t, from.j - i_t).
  if (run.found) {
    hit = Crosspoint{from.i - run.found_j, from.j - run.found_i, corner.score, dp::CellState::kH};
  }
  return RowCrossing{hit, run.stats};
}

Stage2Result run_stage2(seq::SequenceView s0, seq::SequenceView s1, const Crosspoint& end_point,
                        const Stage2Config& config) {
  config.scheme.validate();
  CUDALIGN_CHECK(config.rows_area != nullptr, "stage 2 requires the stage-1 special rows area");
  CUDALIGN_CHECK(end_point.type == dp::CellState::kH, "the end point always has type 0");
  Timer timer;
  Stage2Result result;
  sra::SpecialRowsArea& rows_area = *config.rows_area;

  // Stage-1 special rows above the end point, ascending by row: the loop
  // takes them from the back, nearest row first.
  std::vector<std::size_t> row_ids = rows_area.group_members(kRowsGroup);
  std::erase_if(row_ids,
                [&](std::size_t id) { return rows_area.key(id).position >= end_point.i; });

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

  std::vector<Crosspoint> reverse_chain{end_point};
  Crosspoint cur = end_point;
  Index iteration = 0;
  CUDALIGN_CHECK(cur.score > 0, "stage 2 needs a positive best score (empty alignments are "
                                "resolved by the pipeline before stage 2)");

  const std::int64_t rows_read_before = rows_area.total_bytes_read();
  const Index rows_count_before = rows_area.rows_read();
  const std::int64_t cols_flushed_before =
      config.cols_area != nullptr ? config.cols_area->total_bytes_written() : 0;

  // At most engine::kSpanBuckets spans, "iterations a-b", as Stage 1
  // buckets its retired strips: a span per iteration would grow the
  // report with the number of special rows. Each iteration ends on the next
  // special row up (or at the start point), so expected_iterations bounds the
  // loop.
  const Index bucket_size =
      (expected_iterations + engine::kSpanBuckets - 1) / engine::kSpanBuckets;
  std::unique_ptr<obs::ScopedSpan> bucket_span;
  while (cur.score > 0) {
    if (iteration % bucket_size == 0) {
      const Index last = std::min(iteration + bucket_size, expected_iterations) - 1;
      bucket_span.reset();  // Closed before the next opens: buckets are siblings.
      bucket_span = std::make_unique<obs::ScopedSpan>(
          config.telemetry, "iterations " + std::to_string(iteration) + "-" + std::to_string(last));
    }
    // The nearest special row above the current crosspoint, with its (H, F)
    // per column vertex; none left means the top rectangle, where only the
    // start-point probe can end the run.
    Index r_star = 0;
    std::vector<engine::BusCell> forward;
    if (!row_ids.empty()) {
      r_star = rows_area.key(row_ids.back()).position;
      forward = rows_area.get(row_ids.back());
      row_ids.pop_back();
      // A vertical gap run crosses the row only from a positive forward
      // prefix: a non-positive one cannot be on an optimal path (trimming it
      // would improve the alignment). Local mode's rule, so Stage 2's alone.
      for (engine::BusCell& cell : forward) {
        if (cell.gap <= 0) cell.gap = kNegInf;
      }
    }
    const Index rect_h = cur.i - r_star;
    const Index rect_w = cur.j;

    engine::Hooks hooks;
    hooks.bus_audit = config.bus_audit;
    // Special columns for Stage 3 (the iteration's group is its partition's).
    const std::int64_t group = kColsGroupBase + iteration;
    if (config.cols_area && per_iter_budget >= 8 * (rect_h + 1) && rect_w > 0) {
      hooks.special_row_interval = sra::flush_interval_for_budget(
          rect_w, rect_h, config.grid.strip_rows(), per_iter_budget);
      hooks.on_special_row = [&](Index row_t, std::span<const engine::BusCell> cells,
                                 const dp::LocalBest&, const engine::PruneState&) {
        // Engine row row_t == original column cur.j - row_t; entry q maps to
        // original row cur.i - q. Store in original (ascending-row) order.
        std::vector<engine::BusCell> original(cells.rbegin(), cells.rend());
        config.cols_area->put(sra::RowKey{cur.j - row_t, r_star, cur.i, group}, original);
        ++result.special_cols_saved;
      };
    }

    const RowCrossing crossing = cross_row(s0_rev, s1_rev, Crosspoint{r_star, 0, 0}, cur, forward,
                                           /*probe=*/true, config.grid, config.scheme,
                                           std::move(hooks), config.pool);
    result.stats.add_run(crossing.run);
    CUDALIGN_CHECK(crossing.next.has_value(),
                   "stage 2 found neither a crosspoint nor the start point — "
                   "goal-based matching invariant violated");
    cur = *crossing.next;
    reverse_chain.push_back(cur);
    ++iteration;
  }

  result.crosspoints.assign(reverse_chain.rbegin(), reverse_chain.rend());
  result.stats.crosspoints = static_cast<Index>(result.crosspoints.size());
  result.stats.sra_rows_read = rows_area.rows_read() - rows_count_before;
  result.stats.sra_bytes_read = rows_area.total_bytes_read() - rows_read_before;
  if (config.cols_area != nullptr) {
    result.stats.sra_rows_flushed = result.special_cols_saved;
    result.stats.sra_bytes_flushed =
        config.cols_area->total_bytes_written() - cols_flushed_before;
  }
  result.stats.seconds = timer.seconds();
  return result;
}

}  // namespace cudalign::core
