// Stage 3 (paper §IV-D): splitting partitions.
//
// Each stage-2 partition is recomputed *forward* (threads horizontal, like
// Stage 1, orthogonal to Stage 2's execution — Figure 9) with the global
// recurrence and the start-type-adjusted initialization. Whenever the
// computation passes one of the special columns saved by Stage 2, the forward
// (H, E) values are matched against the stored reverse values with the
// goal-based procedure; once every special column of the partition has its
// crosspoint — the paper's "last special column intercepted" — the partition's
// run stops early.
//
// Partitions are processed in parallel ("the order of execution of the
// partitions is irrelevant, so they can be processed in parallel" — and the
// paper's §VI lists partition-parallel Stage 3 as future work; this CPU
// implementation delivers it via the thread pool, with the per-partition
// engine runs degrading to inline execution inside pool workers).
#include <algorithm>
#include <map>

#include "common/timer.hpp"
#include "core/stages.hpp"
#include "obs/telemetry.hpp"

namespace cudalign::core {

namespace {

/// A stored special column ready for matching.
struct ReverseColumn {
  Index column = 0;      ///< Original column vertex.
  Index row_begin = 0;   ///< First original row covered.
  std::vector<engine::BusCell> cells;  ///< (H, E) of the reverse DP, by row.
};

struct PartitionOutcome {
  std::vector<Crosspoint> crosspoints;  ///< New crosspoints, ascending column.
  engine::RunStats run;                 ///< The partition's engine run stats.
};

/// Splits `part` at the special columns Stage 2 stored in `group` of the
/// columns area. The columns are read here, inside the partition's task, so
/// Stage 3 holds only the columns of the partitions in flight.
PartitionOutcome split_partition(seq::SequenceView s0, seq::SequenceView s1,
                                 const Partition& part, std::int64_t group,
                                 const Stage3Config& config) {
  PartitionOutcome outcome;
  std::vector<ReverseColumn> columns;  // Ascending: group_members sorts by position.
  for (const std::size_t id : config.cols_area->group_members(group)) {
    const sra::RowKey& key = config.cols_area->key(id);
    // Only columns strictly inside the partition can carry a crosspoint.
    if (key.position <= part.start.j || key.position >= part.end.j) continue;
    columns.push_back(ReverseColumn{key.position, key.begin, config.cols_area->get(id)});
  }
  if (columns.empty()) return outcome;

  const Index m_p = part.height();
  const Index n_p = part.width();
  const Score goal = part.score();

  engine::ProblemSpec spec;
  spec.a = s0.subspan(static_cast<std::size_t>(part.start.i), static_cast<std::size_t>(m_p));
  spec.b = s1.subspan(static_cast<std::size_t>(part.start.j), static_cast<std::size_t>(n_p));
  spec.recurrence = engine::Recurrence::global_start(part.start.type, config.scheme);
  spec.grid = config.grid;

  engine::Hooks hooks;
  hooks.bus_audit = config.bus_audit;
  std::map<Index, Crosspoint> found;  // Keyed by column, ordered.
  hooks.tap_columns.reserve(columns.size());
  for (const auto& col : columns) hooks.tap_columns.push_back(col.column - part.start.j);

  hooks.on_tap = [&](Index col_local, Index first_row,
                     std::span<const engine::BusCell> entries) {
    const Index col = col_local + part.start.j;
    if (found.contains(col)) {
      return found.size() == columns.size() ? engine::HookAction::kStop
                                            : engine::HookAction::kContinue;
    }
    const auto it = std::find_if(columns.begin(), columns.end(),
                                 [&](const ReverseColumn& c) { return c.column == col; });
    CUDALIGN_ASSERT(it != columns.end());
    for (std::size_t k = 0; k < entries.size(); ++k) {
      const Index i = part.start.i + first_row + static_cast<Index>(k);
      if (i < it->row_begin) continue;
      const engine::BusCell& fwd = entries[k];
      // A horizontal gap run (E) is what crosses a column.
      if (const auto state = junction(fwd, it->cells[static_cast<std::size_t>(i - it->row_begin)],
                                      goal, config.scheme, dp::CellState::kE)) {
        const Score prefix = *state == dp::CellState::kH ? fwd.h : fwd.gap;
        found.emplace(col, Crosspoint{i, col, static_cast<Score>(part.start.score + prefix),
                                      *state});
        break;
      }
    }
    return found.size() == columns.size() ? engine::HookAction::kStop
                                          : engine::HookAction::kContinue;
  };

  // Goal pruning: a path still to be matched crosses some special column
  // c > c0 at a row >= r0 — not necessarily the first column right of c0,
  // since a path entering a tile from above may already be past it — and
  // gains at most match * min(m_p - r0, c - c0) on the way. tails[t][k] is
  // column t's best junction value over the rows of strip k and below: one
  // entry per strip, not per row.
  std::vector<std::vector<Score>> tails;
  if (config.block_pruning) {
    const Index strip_rows = config.grid.strip_rows();
    const auto strips = static_cast<std::size_t>(m_p / strip_rows) + 1;
    for (const ReverseColumn& col : columns) {
      std::vector<Score>& tail = tails.emplace_back(strips + 1, kNegInf);
      for (std::size_t q = 0; q < col.cells.size(); ++q) {
        const Index i = col.row_begin + static_cast<Index>(q) - part.start.i;
        if (i < 0 || i > m_p) continue;
        Score& slot = tail[static_cast<std::size_t>(i / strip_rows)];
        slot = std::max(slot, junction_value(col.cells[q], config.scheme));
      }
      for (std::size_t k = strips; k-- > 0;) tail[k] = std::max(tail[k], tail[k + 1]);
    }
    spec.block_pruning = true;
    spec.goal = goal;
    spec.goal_reach = [&, strip_rows](Index r0, Index c0) {
      const auto k = static_cast<std::size_t>(r0 / strip_rows);
      WideScore reach = kNegInf;
      for (std::size_t t = 0; t < tails.size(); ++t) {
        const Index c = hooks.tap_columns[t];
        if (c <= c0) continue;
        reach = std::max(reach, WideScore{config.scheme.match} * std::min(m_p - r0, c - c0) +
                                    tails[t][k]);
      }
      return reach;
    };
  }

  const engine::RunResult run = engine::run_wavefront(spec, hooks, config.pool);
  outcome.run = run.stats;
  CUDALIGN_CHECK(found.size() == columns.size(),
                 "stage 3 failed to intercept every special column of a partition");
  for (const auto& [col, cp] : found) outcome.crosspoints.push_back(cp);
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
    result.stats.add_run(outcomes[p].run);
  }
  result.crosspoints.push_back(l2.back());
  result.stats.sra_rows_read = config.cols_area->rows_read() - cols_count_before;
  result.stats.sra_bytes_read = config.cols_area->total_bytes_read() - cols_read_before;

  result.stats.crosspoints = static_cast<Index>(result.crosspoints.size());
  result.stats.seconds = timer.seconds();
  return result;
}

}  // namespace cudalign::core
