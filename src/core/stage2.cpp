// Stage 2 (paper §IV-C): partial traceback.
//
// From the end point, the DP matrices are recomputed in the *reverse*
// direction with the global recurrence, one strip at a time: each iteration
// covers the rectangle between the current crosspoint and the nearest
// special row above it. Two of the paper's optimizations shape the code:
//
//  * Orthogonal execution: the reverse computation runs along original
//    *columns* (implemented by handing the engine the transposed+reversed
//    problem, so "rows" of the engine problem are original columns). The
//    matching vector — the original special row — is then the engine
//    problem's final column, delivered strip by strip as the rectified
//    vertical bus; the run stops at the first goal match, skipping the
//    remaining area (Figure 7's gray region).
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

namespace {

/// Loaded stage-1 special row, ready for matching.
struct ForwardRow {
  Index row = 0;
  std::vector<engine::BusCell> cells;  ///< (H, F) per column vertex.
};

struct MatchHit {
  Index j = 0;       ///< Original column of the crosspoint.
  Score score = 0;   ///< Absolute prefix score (the stored forward value).
  dp::CellState type = dp::CellState::kH;
};

}  // namespace

Stage2Result run_stage2(seq::SequenceView s0, seq::SequenceView s1, const Crosspoint& end_point,
                        const Stage2Config& config) {
  config.scheme.validate();
  CUDALIGN_CHECK(config.rows_area != nullptr, "stage 2 requires the stage-1 special rows area");
  CUDALIGN_CHECK(end_point.type == dp::CellState::kH, "the end point always has type 0");
  Timer timer;
  Stage2Result result;

  // Stage-1 special rows, ascending by row.
  std::vector<std::size_t> row_ids = config.rows_area->group_members(kRowsGroup);

  // Budget for special columns: spread the columns area across the expected
  // iterations (one per partition). When an iteration's share cannot hold a
  // single column, that iteration saves none and Stage 4 absorbs the
  // partition instead — graceful degradation, never a budget violation.
  Index expected_iterations = 1;
  for (std::size_t id : row_ids) {
    if (config.rows_area->key(id).position < end_point.i) ++expected_iterations;
  }
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

  const std::int64_t rows_read_before = config.rows_area->total_bytes_read();
  const Index rows_count_before = config.rows_area->rows_read();
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
    // Nearest special row strictly above the current crosspoint.
    Index r_star = 0;
    std::optional<std::size_t> row_id;
    for (std::size_t id : row_ids) {
      const Index pos = config.rows_area->key(id).position;
      if (pos < cur.i && pos >= r_star) {
        r_star = pos;
        row_id = id;
      }
    }
    const Index rect_h = cur.i - r_star;
    const Index rect_w = cur.j;
    CUDALIGN_CHECK(rect_h > 0, "crosspoint must lie below the next special row");

    // Transposed + reversed problem: engine rows are original columns
    // (orthogonal execution), the engine origin is the current crosspoint.
    // Rows are s1[0..cur.j) reversed, columns s0[r*..cur.i) reversed.
    engine::ProblemSpec spec;
    spec.a = seq::SequenceView(s1_rev).last(static_cast<std::size_t>(cur.j));
    spec.b = seq::SequenceView(s0_rev).subspan(s0.size() - static_cast<std::size_t>(cur.i),
                                               static_cast<std::size_t>(rect_h));
    spec.recurrence =
        engine::Recurrence::global_end(transpose_state(cur.type), config.scheme);
    spec.grid = config.grid;

    ForwardRow forward;
    if (row_id) {
      forward.row = r_star;
      forward.cells = config.rows_area->get(*row_id);
    }

    std::optional<MatchHit> hit;
    engine::Hooks hooks;
    hooks.bus_audit = config.bus_audit;

    // Matching vector: the engine problem's final column == original row r*.
    if (row_id) {
      hooks.tap_columns = {rect_h};
      hooks.on_tap = [&](Index /*col*/, Index first_row,
                         std::span<const engine::BusCell> entries) {
        for (std::size_t k = 0; k < entries.size(); ++k) {
          const Index r_t = first_row + static_cast<Index>(k);
          const Index j = cur.j - r_t;  // Original column of this entry.
          engine::BusCell fwd = forward.cells[static_cast<std::size_t>(j)];
          // A vertical gap run crosses the row only from a positive forward
          // prefix: a non-positive one cannot be on an optimal path
          // (trimming it would improve the alignment).
          if (fwd.gap <= 0) fwd.gap = kNegInf;
          if (const auto state =
                  junction(fwd, entries[k], cur.score, config.scheme, dp::CellState::kF)) {
            hit = MatchHit{j, *state == dp::CellState::kH ? fwd.h : fwd.gap, *state};
            return engine::HookAction::kStop;
          }
        }
        return engine::HookAction::kContinue;
      };
    }

    // Start-point probe, enabled only when the goal is reachable inside this
    // rectangle (at most match * min(h, w) can be gained by any sub-path).
    const WideScore max_gain =
        static_cast<WideScore>(config.scheme.match) * std::min(rect_h, rect_w);
    if (max_gain >= cur.score) hooks.find_value = cur.score;

    // Special columns for Stage 3 (the iteration's group is its partition's).
    const std::int64_t group = kColsGroupBase + iteration;
    Index interval = 0;
    if (config.cols_area && per_iter_budget >= 8 * (rect_h + 1) && rect_w > 0) {
      interval = sra::flush_interval_for_budget(rect_w, rect_h, config.grid.strip_rows(),
                                                per_iter_budget);
      hooks.special_row_interval = interval;
      hooks.on_special_row = [&](Index row_t, std::span<const engine::BusCell> cells,
                                 const dp::LocalBest&, const engine::PruneState&) {
        // Engine row row_t == original column cur.j - row_t; entry q maps to
        // original row cur.i - q. Store in original (ascending-row) order.
        std::vector<engine::BusCell> original(cells.rbegin(), cells.rend());
        config.cols_area->put(sra::RowKey{cur.j - row_t, r_star, cur.i, group}, original);
        ++result.special_cols_saved;
      };
    }

    const engine::RunResult run = engine::run_wavefront(spec, hooks, config.pool);
    result.stats.add_run(run.stats);

    if (run.found) {
      // Start point: engine cell (i_t, j_t) maps back to the original vertex
      // (cur.i - j_t, cur.j - i_t).
      const Crosspoint start{cur.i - run.found_j, cur.j - run.found_i, 0, dp::CellState::kH};
      reverse_chain.push_back(start);
      cur = start;
    } else if (hit) {
      const Crosspoint next{r_star, hit->j, hit->score, hit->type};
      reverse_chain.push_back(next);
      cur = next;
    } else {
      CUDALIGN_CHECK(false, "stage 2 found neither a crosspoint nor the start point — "
                            "goal-based matching invariant violated");
    }
    ++iteration;
  }

  result.crosspoints.assign(reverse_chain.rbegin(), reverse_chain.rend());
  result.stats.crosspoints = static_cast<Index>(result.crosspoints.size());
  result.stats.sra_rows_read = config.rows_area->rows_read() - rows_count_before;
  result.stats.sra_bytes_read = config.rows_area->total_bytes_read() - rows_read_before;
  if (config.cols_area != nullptr) {
    result.stats.sra_rows_flushed = result.special_cols_saved;
    result.stats.sra_bytes_flushed =
        config.cols_area->total_bytes_written() - cols_flushed_before;
  }
  result.stats.seconds = timer.seconds();
  return result;
}

}  // namespace cudalign::core
