// Stage 3 (paper §IV-D): splitting partitions.
//
// Each stage-2 partition is split at the special columns Stage 2 saved in it
// by goal-based matching (Figure 6), one column at a time in ascending order.
// Column c is crossed by one cross_row call (stage2.cpp) that starts at the
// crosspoint `prev` found on the column before it (the partition start for
// the first): the engine recomputes s0[prev.i, end.i) x s1[prev.j, c)
// *forward* (threads horizontal, like Stage 1, orthogonal to Stage 2's
// execution — Figure 9) with the global recurrence entering in prev's state,
// reads column c as the engine problem's last column, and stops at the first
// row where the forward values and the stored reverse ones reach the goal
// end.score - prev.score. So every
// crosspoint lies on an optimal path through the one before it, and the runs
// cover only the rectangles between consecutive crosspoints.
//
// cross_row crosses a row of the matrix it is handed, coming from a corner
// with larger coordinates. Stage 3 hands it the transposed, mirrored matrix:
// vertex (i, j) is (n - j, m - i) there and a score s is -s, so column c is
// row n - c, `prev` is the corner it comes from, the stored column (reversed
// to descending rows) is the row's forward values, and the engine problem is
// the original forward one.
//
// Partitions are processed in parallel ("the order of execution of the
// partitions is irrelevant, so they can be processed in parallel" — and the
// paper's §VI lists partition-parallel Stage 3 as future work; this CPU
// implementation delivers it via the thread pool, with the per-partition
// engine runs degrading to inline execution inside pool workers).
#include <algorithm>

#include "common/timer.hpp"
#include "core/stages.hpp"
#include "obs/telemetry.hpp"

namespace cudalign::core {

namespace {

struct PartitionOutcome {
  std::vector<Crosspoint> crosspoints;  ///< New crosspoints, ascending column.
  std::vector<engine::RunStats> runs;   ///< One per crossing.
};

/// Splits `part` at the special columns Stage 2 stored in `group` of the
/// columns area. Each column is read here, right before its crossing, so
/// Stage 3 holds one column per partition in flight.
PartitionOutcome split_partition(seq::SequenceView s0, seq::SequenceView s1,
                                 const Partition& part, std::int64_t group,
                                 const Stage3Config& config) {
  const auto m = static_cast<Index>(s0.size());
  const auto n = static_cast<Index>(s1.size());
  engine::Hooks hooks;
  hooks.bus_audit = config.bus_audit;
  PartitionOutcome outcome;
  Crosspoint prev = part.start;
  // Ascending by column: group_members sorts by position.
  for (const std::size_t id : config.cols_area->group_members(group)) {
    const sra::RowKey& key = config.cols_area->key(id);
    const Index c = key.position;
    // Only columns strictly inside the partition can carry a crosspoint.
    if (c <= part.start.j || c >= part.end.j) continue;
    CUDALIGN_ASSERT(key.end == part.end.i);
    // Stored by ascending row; reversed, entry k is row end.i - k, the
    // mirrored column m - end.i + k.
    std::vector<engine::BusCell> column = config.cols_area->get(id);
    std::reverse(column.begin(), column.end());

    const RowCrossing crossing =
        cross_row(s1, s0, Crosspoint{n - c, m - part.end.i, -part.end.score},
                  Crosspoint{n - prev.j, m - prev.i, -prev.score, transpose_state(prev.type)},
                  column, /*probe=*/false, /*from_starts=*/true, config.block_pruning,
                  config.grid, config.scheme, hooks, config.pool);
    outcome.runs.push_back(crossing.run);
    CUDALIGN_CHECK(crossing.next.has_value(), "stage 3 found no crosspoint on special column ", c,
                   " (partition ", part.height(), "x", part.width(), " goal ", part.score(), ")");
    // Mirrored back, the hit scores end.score minus the reverse suffix. A
    // gap crossing's L_k score is the forward gap prefix, which is G_open
    // lower, since the two gap halves each charge the run's opening.
    const Crosspoint& hit = *crossing.next;
    Score score = -hit.score;
    if (hit.type != dp::CellState::kH) score -= config.scheme.gap_open();
    prev = Crosspoint{m - hit.j, c, score, transpose_state(hit.type)};
    outcome.crosspoints.push_back(prev);
  }
  return outcome;
}

}  // namespace

Stage3Result run_stage3(seq::SequenceView s0, seq::SequenceView s1, const CrosspointList& l2,
                        const Stage3Config& config) {
  config.scheme.validate();
  CUDALIGN_CHECK(config.cols_area != nullptr, "stage 3 requires the stage-2 special columns");
  Timer timer;
  Stage3Result result;

  const std::vector<Partition> parts = partitions_of(l2);
  const auto part_count = static_cast<std::int64_t>(parts.size());

  const std::int64_t cols_read_before = config.cols_area->total_bytes_read();
  const Index cols_count_before = config.cols_area->rows_read();

  std::vector<PartitionOutcome> outcomes(parts.size());
  {
    obs::ScopedSpan split_span(config.telemetry, "split partitions");
    // Stage 2 iterated from the end point backwards: partition p (from the
    // start) was produced by iteration part_count - 1 - p.
    const auto split = [&](std::size_t p) {
      const auto group = kColsGroupBase + part_count - 1 - static_cast<std::int64_t>(p);
      outcomes[p] = split_partition(s0, s1, parts[p], group, config);
    };
    if (config.bus_audit != nullptr) {
      // One auditor audits one engine run at a time (check/bus_audit.hpp),
      // so an audited Stage 3 runs its partitions in turn.
      for (std::size_t p = 0; p < parts.size(); ++p) split(p);
    } else {
      ThreadPool& pool = config.pool ? *config.pool : ThreadPool::shared();
      pool.parallel_for(parts.size(), split);
    }
  }

  for (std::size_t p = 0; p < parts.size(); ++p) {
    result.crosspoints.push_back(parts[p].start);
    for (const Crosspoint& cp : outcomes[p].crosspoints) result.crosspoints.push_back(cp);
    for (const engine::RunStats& run : outcomes[p].runs) result.stats.add_run(run);
  }
  result.crosspoints.push_back(l2.back());
  result.stats.sra_rows_read = config.cols_area->rows_read() - cols_count_before;
  result.stats.sra_bytes_read = config.cols_area->total_bytes_read() - cols_read_before;

  result.stats.crosspoints = static_cast<Index>(result.crosspoints.size());
  result.stats.seconds = timer.seconds();
  return result;
}

}  // namespace cudalign::core
