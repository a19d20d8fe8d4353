#include "engine/executor.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <utility>

#include "check/bus_audit.hpp"
#include "check/checked.hpp"
#include "common/timer.hpp"
#include "dp/linear.hpp"
#include "engine/kernel_registry.hpp"
#include "engine/sched.hpp"
#include "obs/telemetry.hpp"

namespace cudalign::engine {

namespace {

using dp::AlignMode;

/// Merge rule shared with the reference: higher score wins; ties break toward
/// the lexicographically smallest vertex (row-major first occurrence).
void merge_best(dp::LocalBest& best, const dp::LocalBest& cand) {
  if (cand.score > best.score ||
      (cand.score == best.score && cand.score > 0 &&
       (cand.i < best.i || (cand.i == best.i && cand.j < best.j)))) {
    best = cand;
  }
}

/// One strip's share of the run, folded by its own tiles and consumed by
/// retire(). Tiles of one strip fold in chunk order — (s, b) happens after
/// (s, b - 1) under both schedules — so the fold needs no synchronization.
struct StripSlot {
  Index tiles = 0;                          ///< Kernel calls plus pruned tiles.
  WideScore cells = 0;
  WideScore pruned_cells = 0;
  Index pruned_tiles = 0;
  std::array<KernelTally, kKernelIdCount> kernels{};
  dp::LocalBest best;
  bool found = false;                       ///< Row-major-first probe hit of the strip.
  Index found_i = 0, found_j = 0;
  std::vector<std::vector<BusCell>> taps;   ///< Per tap column: rows (r0, r1].
  std::span<BusCell> row;                   ///< Special strips only: vertex row r1.
};

}  // namespace

const char* executor_name(ExecutorKind kind) {
  switch (kind) {
    case ExecutorKind::kLockstep: return "lockstep";
    case ExecutorKind::kDataflow: return "dataflow";
  }
  return "unknown";
}

ExecutorKind executor_from_name(std::string_view name) {
  if (name == "lockstep") return ExecutorKind::kLockstep;
  if (name == "dataflow") return ExecutorKind::kDataflow;
  CUDALIGN_CHECK(false, "unknown executor \"" + std::string(name) +
                            "\" (expected \"lockstep\" or \"dataflow\")");
  return ExecutorKind::kLockstep;
}

RunResult run_wavefront(const ProblemSpec& spec, const Hooks& hooks, ThreadPool* pool) {
  spec.recurrence.scheme.validate();
  CUDALIGN_CHECK(hooks.special_row_interval == 0 || hooks.on_special_row,
                 "special-row flushing requires an on_special_row sink");
  CUDALIGN_CHECK(hooks.tap_columns.empty() || hooks.on_tap,
                 "tap columns require an on_tap hook");
  CUDALIGN_CHECK(std::is_sorted(hooks.tap_columns.begin(), hooks.tap_columns.end()),
                 "tap columns must be ascending");
  if (spec.block_pruning) {
    CUDALIGN_CHECK(spec.recurrence.mode == AlignMode::kLocal,
                   "block pruning requires local mode (a global run has no best bound)");
    CUDALIGN_CHECK(hooks.tap_columns.empty() && !hooks.find_value,
                   "block pruning cannot be combined with taps or value probes");
  }
  if (pool == nullptr) pool = &ThreadPool::shared();

  // Resolve kernel pinning up front so a bad name fails on the caller thread
  // with a proper message. The spec override is API input and throws; the
  // environment override is resolved by kernel_override() itself, which
  // fail-fast exits on an unknown CUDALIGN_KERNEL name — touching it here
  // guarantees that happens before any tile work starts.
  const KernelVariant* forced_kernel = nullptr;
  if (!spec.kernel_override.empty()) {
    forced_kernel = find_kernel(spec.kernel_override);
    CUDALIGN_CHECK(forced_kernel != nullptr,
                   "unknown kernel variant in ProblemSpec::kernel_override: " +
                       spec.kernel_override + " (valid: " + kernel_names_list() + ")");
  }
  (void)kernel_override();

  const Index m = check::checked_cast<Index>(spec.a.size());
  const Index n = check::checked_cast<Index>(spec.b.size());
  const std::vector<Index>& tap_columns = hooks.tap_columns;
  for (std::size_t t = 0; t < tap_columns.size(); ++t) {
    const Index c = tap_columns[t];
    CUDALIGN_CHECK(c >= 1 && c <= n, "tap columns must be in [1, n]");
    CUDALIGN_CHECK(t == 0 || tap_columns[t - 1] < c, "tap columns must be unique");
  }

  Timer timer;
  RunResult result;
  const GridSpec grid = fit_to_width(spec.grid, n);
  const Index strip_rows = grid.strip_rows();
  const Index row0 = spec.start_row;
  if (row0 != 0 || !spec.initial_hbus.empty()) {
    CUDALIGN_CHECK(row0 >= 0 && row0 < m, "resume start row must lie inside the matrix");
    CUDALIGN_CHECK(row0 % strip_rows == 0,
                   "resume start row must be a strip boundary (a flushed special row)");
    CUDALIGN_CHECK(static_cast<Index>(spec.initial_hbus.size()) == n + 1,
                   "resume needs the complete restored horizontal bus (n+1 cells)");
    CUDALIGN_CHECK(tap_columns.empty() && !hooks.find_value,
                   "resume cannot be combined with taps or value probes (their row-0 "
                   "boundary delivery would not reflect the restored bus)");
  }
  const Recurrence& rec = spec.recurrence;
  // Sentinel boundaries (see executor.hpp): column 0 runs as its own
  // one-wide chunk, and a fresh run's strip-0 tiles run row 1 apart.
  const Index peel_col0 = n > 1 && is_neg_inf(rec.left_boundary(1).h) ? 1 : 0;
  const bool peel_row0 = spec.initial_hbus.empty() && n > 0 && is_neg_inf(rec.top_boundary(1).h);

  const Index base_strip = row0 / strip_rows;
  const Index strips = (m - row0 + strip_rows - 1) / strip_rows;
  const Index blocks = peel_col0 + std::max<Index>(1, std::min(grid.blocks, n - peel_col0));
  result.best = spec.initial_best;
  result.stats.blocks_used = blocks;

  // Row-0 tap delivery (boundary vertices, before any strip).
  for (const Index col : tap_columns) {
    const BusCell entry{rec.top_boundary(col).h, rec.top_boundary_e(col)};
    if (hooks.on_tap(col, 0, std::span<const BusCell>(&entry, 1)) == HookAction::kStop) {
      result.stopped_early = true;
      result.stats.seconds = timer.seconds();
      return result;
    }
  }
  if (m == 0 || n == 0) {
    result.stats.seconds = timer.seconds();
    return result;
  }

  // Chunk boundaries: near-equal column spans after the peeled column, if
  // any. Chunk b covers the tap columns with indices [tap_lo[b], tap_lo[b + 1]).
  std::vector<Index> cuts(static_cast<std::size_t>(blocks) + 1);
  std::vector<std::size_t> tap_lo(static_cast<std::size_t>(blocks) + 1);
  for (Index b = 0; b <= blocks; ++b) {
    const auto k = static_cast<std::size_t>(b);
    cuts[k] = b < peel_col0
                  ? 0
                  : peel_col0 + (n - peel_col0) * (b - peel_col0) / (blocks - peel_col0);
    tap_lo[k] = static_cast<std::size_t>(
        std::upper_bound(tap_columns.begin(), tap_columns.end(), cuts[k]) - tap_columns.begin());
  }

  // The schedule fixes how many strips are in flight at once, and with it how
  // many buffers every per-strip resource rotates over (index s % count).
  // Lockstep: a diagonal spans at most `blocks` strips, and the vertical bus
  // and pruning closure are double-buffered by strip parity (the
  // same-diagonal hazard; see executor.hpp). Dataflow: the scheduler's window
  // gate admits strip s only once strip s - window - 1 has retired, so
  // window + 2 buffers never overlap a live strip, and a run of fewer strips
  // needs one buffer per strip.
  const bool dataflow = spec.executor == ExecutorKind::kDataflow;
  const Index workers = std::max<Index>(1, static_cast<Index>(pool->worker_count()));
  const Index window = std::max<Index>(4, 2 * workers);
  const Index ring = std::min(strips, dataflow ? window + 2 : blocks);
  const Index planes = dataflow ? ring : 2;

  check::BusAuditor* audit = hooks.bus_audit;
  if (audit != nullptr) {
    audit->begin_run(n, strips, blocks, strip_rows, cuts,
                     dataflow ? check::OrderModel::kTileHappensBefore
                              : check::OrderModel::kDiagonalBarrier,
                     planes);
  }

  // Horizontal bus: (H, F) per column vertex, initialized to row `row0` — the
  // top boundary for a fresh run, the restored special row for a resume.
  std::vector<BusCell> hbus(static_cast<std::size_t>(n) + 1);
  if (!spec.initial_hbus.empty()) {
    std::copy(spec.initial_hbus.begin(), spec.initial_hbus.end(), hbus.begin());
  } else {
    for (Index j = 0; j <= n; ++j) hbus[static_cast<std::size_t>(j)] = rec.top_boundary(j);
  }
  if (audit != nullptr) audit->seed_horizontal();

  // Vertical buses: (H, E) per row vertex of a strip, one buffer per chunk
  // boundary per plane.
  const std::size_t vbus_len = static_cast<std::size_t>(strip_rows) + 1;
  std::vector<std::vector<BusCell>> vbus(static_cast<std::size_t>(blocks + 1) *
                                         static_cast<std::size_t>(planes));
  for (auto& buf : vbus) buf.resize(vbus_len);
  auto vbus_at = [&](Index boundary, Index strip) -> std::vector<BusCell>& {
    return vbus[static_cast<std::size_t>(boundary * planes + strip % planes)];
  };
  result.stats.bus_bytes = hbus.size() * sizeof(BusCell) + vbus.size() * vbus_len * sizeof(BusCell);

  // Strip indices here are *global* (offset by base_strip), so a resumed run
  // flushes exactly the rows a fresh run would.
  const Index interval = hooks.special_row_interval;
  auto strip_is_special = [&](Index s) {
    if (interval == 0) return false;
    const Index g = base_strip + s;
    const Index r1 = (g + 1) * strip_rows;
    return (g + 1) % interval == 0 && r1 < m;
  };

  std::vector<StripSlot> slots(static_cast<std::size_t>(ring));
  // Special-row buffers, reused: `ring` consecutive strips hold at most
  // (ring - 1) / interval + 1 special ones, so special strip k (counted
  // globally) takes buffer k % count without overlapping a live row.
  std::vector<std::vector<BusCell>> row_buffers(
      interval == 0 ? 0 : static_cast<std::size_t>((ring - 1) / interval + 1),
      std::vector<BusCell>(static_cast<std::size_t>(n) + 1));

  // Pruning closure (see ProblemSpec::block_pruning): closure[s % planes][b]
  // holds the best score over tile (s, b)'s ancestor rectangle plus the
  // resume seed. Tile (s, b) reads the rows written by (s - 1, b) and
  // (s, b - 1), which both schedules order before it. Not allocated unless
  // pruning.
  std::vector<Score> closure(
      spec.block_pruning ? static_cast<std::size_t>(planes) * static_cast<std::size_t>(blocks)
                         : 0);

  // The tile body, shared by both schedules.
  auto tile = [&](Index s, Index b) {
    const Index r0 = row0 + s * strip_rows;
    const Index r1 = std::min(m, r0 + strip_rows);
    const Index rows = r1 - r0;
    const Index c0 = cuts[static_cast<std::size_t>(b)];
    const Index c1 = cuts[static_cast<std::size_t>(b + 1)];
    const Index d = s + b;  // External diagonal, the audit coordinate.
    StripSlot& slot = slots[static_cast<std::size_t>(s % ring)];

    if (b == 0) {
      // The strip's first tile seeds its column-0 vertical bus and opens its
      // slot (retire() left it empty).
      auto& buf = vbus_at(0, s);
      for (Index i = r0; i <= r1; ++i) {
        buf[static_cast<std::size_t>(i - r0)] = rec.left_boundary(i);
      }
      if (audit != nullptr) audit->seed_vertical(s, rows);
      slot.taps.resize(tap_columns.size());
      if (strip_is_special(s)) {
        auto& row = row_buffers[static_cast<std::size_t>((base_strip + s + 1) / interval) %
                                row_buffers.size()];
        row[0] = BusCell{rec.left_boundary(r1).h, rec.left_boundary_f(r1)};
        slot.row = row;
      }
    }

    const std::size_t tap_begin = tap_lo[static_cast<std::size_t>(b)];
    TileJob job;
    job.r0 = r0;
    job.r1 = r1;
    job.c0 = c0;
    job.c1 = c1;
    job.a = spec.a;
    job.b = spec.b;
    job.recurrence = &rec;
    job.hbus = std::span<BusCell>(hbus).subspan(static_cast<std::size_t>(c0),
                                                static_cast<std::size_t>(c1 - c0) + 1);
    const auto vbus_rows = static_cast<std::size_t>(rows) + 1;
    job.vbus_in = std::span<const BusCell>(vbus_at(b, s)).subspan(0, vbus_rows);
    job.vbus_out = std::span<BusCell>(vbus_at(b + 1, s)).subspan(0, vbus_rows);
    job.tap_cols = std::span<const Index>(tap_columns)
                       .subspan(tap_begin, tap_lo[static_cast<std::size_t>(b + 1)] - tap_begin);
    job.track_best = rec.mode == AlignMode::kLocal;
    job.find_value = hooks.find_value;

    // Audit: the tile consumes its row-r0 horizontal segment and its
    // incoming vertical boundary before publishing anything (both the
    // kernel and the pruning bound-scan below read them).
    if (audit != nullptr) {
      audit->read_horizontal(s, b, d, c0, c1);
      audit->read_vertical(s, b, d, rows);
    }

    bool pruned = false;
    Score closure_in = 0;
    if (spec.block_pruning) {
      closure_in = spec.initial_best.score;
      if (s > 0) {
        closure_in = std::max(
            closure_in, closure[static_cast<std::size_t>(((s - 1) % planes) * blocks + b)]);
      }
      if (b > 0) {
        closure_in =
            std::max(closure_in, closure[static_cast<std::size_t>((s % planes) * blocks + b - 1)]);
      }
      if (closure_in > 0) {
        // Best incoming H across the tile's boundary (the corner arrives via
        // the vertical bus; hbus index 0 is the left neighbour's and stale).
        Score max_in = 0;  // Local mode: a fresh alignment can start anywhere.
        for (std::size_t k = 1; k < job.hbus.size(); ++k) {
          max_in = std::max(max_in, job.hbus[k].h);
        }
        for (const BusCell& cell : job.vbus_in) max_in = std::max(max_in, cell.h);
        const WideScore bound =
            max_in + static_cast<WideScore>(rec.scheme.match) * std::min(m - r0, n - c0);
        if (bound < closure_in) {
          // Publish safe lower bounds and skip the kernel.
          for (std::size_t k = 1; k < job.hbus.size(); ++k) job.hbus[k] = BusCell{0, kNegInf};
          for (auto& cell : job.vbus_out) cell = BusCell{0, kNegInf};
          pruned = true;
        }
      }
    }

    // One kernel call, folded into the strip's slot. Scratch is reused
    // across tiles of the same worker thread.
    Score tile_best = 0;
    auto call = [&](const TileJob& part) {
      static thread_local TileScratch scratch;
      TileResult tr = run_tile(part, scratch, forced_kernel);
      ++slot.tiles;
      slot.cells += tr.cells;
      KernelTally& tally = slot.kernels[static_cast<std::size_t>(tr.kernel)];
      ++tally.tiles;
      tally.cells += tr.cells;
      tile_best = tr.best.score;
      if (tr.best.score > 0) merge_best(slot.best, tr.best);
      if (tr.found && (!slot.found || std::pair{tr.found_i, tr.found_j} <
                                          std::pair{slot.found_i, slot.found_j})) {
        slot.found = true;
        slot.found_i = tr.found_i;
        slot.found_j = tr.found_j;
      }
      for (std::size_t k = 0; k < tr.taps.size(); ++k) {
        auto& taps = slot.taps[tap_begin + k];
        taps.insert(taps.end(), tr.taps[k].begin(), tr.taps[k].end());
      }
    };
    if (pruned) {
      ++slot.tiles;
      ++slot.pruned_tiles;
      slot.pruned_cells += static_cast<WideScore>(rows) * (c1 - c0);
    } else if (peel_row0 && s == 0 && rows > 1) {
      // Row 1 apart, then rows (1, r1] from genuine H. The second call
      // publishes its corner (row 1) without E, so the first call's entry is
      // kept; taps append and the row-major-first probe hit wins, as across
      // tiles.
      TileJob head = job;
      head.r1 = 1;
      head.vbus_in = job.vbus_in.first(2);
      head.vbus_out = job.vbus_out.first(2);
      call(head);
      const BusCell row1 = job.vbus_out[1];
      TileJob rest = job;
      rest.r0 = 1;
      rest.vbus_in = job.vbus_in.subspan(1);
      rest.vbus_out = job.vbus_out.subspan(1);
      call(rest);
      job.vbus_out[1] = row1;
    } else {
      call(job);
    }
    if (audit != nullptr) {
      audit->write_horizontal(s, b, d, c0, c1);
      audit->write_vertical(s, b, d, rows);
    }
    if (spec.block_pruning) {
      closure[static_cast<std::size_t>((s % planes) * blocks + b)] =
          std::max(closure_in, tile_best);
    }

    // Special-row capture happens here, inside the tile: the down successor
    // (s + 1, b) may overwrite the hbus segment before the strip retires.
    if (!slot.row.empty()) {
      std::copy(hbus.begin() + c0 + 1, hbus.begin() + c1 + 1, slot.row.begin() + c0 + 1);
    }
  };

  // Strip retirement, in ascending strip order under both schedules: the only
  // place results become observable. Returns false to stop the run.
  const Index total_tiles = strips * blocks;
  auto retire = [&](Index s) -> bool {
    StripSlot& slot = slots[static_cast<std::size_t>(s % ring)];
    const Index r0 = row0 + s * strip_rows;
    const Index r1 = std::min(m, r0 + strip_rows);
    const bool special = !slot.row.empty();
    RunStats& stats = result.stats;
    stats.cells += slot.cells;
    stats.pruned_cells += slot.pruned_cells;
    stats.pruned_tiles += slot.pruned_tiles;
    for (std::size_t k = 0; k < kKernelIdCount; ++k) {
      stats.kernels[k].tiles += slot.kernels[k].tiles;
      stats.kernels[k].cells += slot.kernels[k].cells;
    }
    stats.tiles += slot.tiles;
    ++stats.strips;
    // Bus traffic (see RunStats): each tile reads and writes its horizontal
    // segment (c1 - c0 + 1 cells, n + blocks over the strip) and vertical
    // boundary; a special row re-reads the strip's n published cells.
    constexpr auto kCell = static_cast<std::int64_t>(sizeof(BusCell));
    stats.hbus_reads += special ? 2 * blocks : blocks;
    stats.hbus_writes += blocks;
    stats.vbus_reads += blocks;
    stats.vbus_writes += blocks;
    stats.hbus_bytes += (2 * (n + blocks) + (special ? n : 0)) * kCell;
    stats.vbus_bytes += 2 * blocks * (r1 - r0 + 1) * kCell;
    if (slot.best.score > 0) merge_best(result.best, slot.best);

    bool go = true;
    if (slot.found) {
      result.found = true;
      result.found_i = slot.found_i;
      result.found_j = slot.found_j;
      go = false;
    }
    for (std::size_t t = 0; t < tap_columns.size() && go; ++t) {
      go = hooks.on_tap(tap_columns[t], r0 + 1, slot.taps[t]) != HookAction::kStop;
    }
    if (go && special) {
      // Diagonal coordinate: the strip's last external diagonal, the one its
      // final tile ran on.
      if (audit != nullptr) audit->flush_handoff(s, s + blocks - 1);
      // Checkpoint hand-off: the merged best covers every tile of strips
      // <= s, exactly the cells of rows <= r1.
      Timer flush_timer;
      hooks.on_special_row(r1, slot.row, result.best);
      stats.special_row_wait_seconds += flush_timer.seconds();
    }
    if (go && hooks.on_progress) hooks.on_progress((s + 1) * blocks, total_tiles);
    slot = StripSlot{};
    result.stopped_early = !go;
    return go;
  };

  if (dataflow) {
    sched::SchedOptions sched_options;
    sched_options.strips = strips;
    sched_options.blocks = blocks;
    sched_options.window = window;
    const sched::SchedStats sched_stats =
        sched::run_tile_graph(sched_options, *pool, tile, retire);
    result.stats.tiles_stolen = static_cast<Index>(sched_stats.tiles_stolen);
    result.stats.starvation_waits = static_cast<Index>(sched_stats.starvation_waits);
  } else {
    // Lockstep: one parallel_for per external diagonal; strip d - blocks + 1
    // retires after diagonal d, which ran its last tile. Diagonal-bucket
    // spans give the run report its wavefront phase profile.
    obs::Telemetry* telemetry = hooks.telemetry;
    const Index total_diagonals = strips + blocks - 1;
    const Index bucket_size =
        telemetry != nullptr ? (total_diagonals + kDiagonalBuckets - 1) / kDiagonalBuckets : 0;
    for (Index d = 0; d < total_diagonals; ++d) {
      if (bucket_size > 0 && d % bucket_size == 0) {
        const Index last = std::min(d + bucket_size, total_diagonals) - 1;
        telemetry->begin("diagonals " + std::to_string(d) + "-" + std::to_string(last));
      }
      const Index s_lo = std::max<Index>(0, d - blocks + 1);
      const Index s_hi = std::min<Index>(strips - 1, d);
      pool->parallel_for(static_cast<std::size_t>(s_hi - s_lo + 1), [&](std::size_t k) {
        const Index s = s_hi - static_cast<Index>(k);
        tile(s, d - s);
      });
      ++result.stats.diagonals;
      const bool go = d < blocks - 1 || retire(s_lo);
      if (bucket_size > 0 && ((d + 1) % bucket_size == 0 || d + 1 == total_diagonals || !go)) {
        telemetry->end();
      }
      if (!go) break;
    }
  }

  result.stats.seconds = timer.seconds();
  return result;
}

std::string kernel_usage_summary(const std::array<KernelTally, kKernelIdCount>& kernels) {
  std::string out;
  for (std::size_t id = 0; id < kKernelIdCount; ++id) {
    const KernelTally& tally = kernels[id];
    if (tally.tiles == 0) continue;
    if (!out.empty()) out += ", ";
    out += kernel_info(static_cast<KernelId>(id)).name;
    out += "=";
    out += std::to_string(tally.tiles);
    out += "/";
    out += std::to_string(tally.cells);
  }
  return out;
}

std::string kernel_usage_summary(const RunStats& stats) {
  return kernel_usage_summary(stats.kernels);
}

RunResult run_reference(const ProblemSpec& spec, const Hooks& hooks) {
  spec.recurrence.scheme.validate();
  if (hooks.find_value) {
    CUDALIGN_CHECK(false, "run_reference does not implement the value probe");
  }
  CUDALIGN_CHECK(spec.start_row == 0 && spec.initial_hbus.empty(),
                 "run_reference does not implement resume (start_row / initial_hbus)");
  RunResult result;
  const Index m = static_cast<Index>(spec.a.size());
  const Index n = static_cast<Index>(spec.b.size());
  const GridSpec grid = fit_to_width(spec.grid, n);
  const Index strip_rows = grid.strip_rows();

  // Row-0 tap delivery, mirroring run_wavefront.
  for (Index col : hooks.tap_columns) {
    const BusCell entry{spec.recurrence.top_boundary(col).h, spec.recurrence.top_boundary_e(col)};
    if (hooks.on_tap(col, 0, std::span<const BusCell>(&entry, 1)) == HookAction::kStop) {
      result.stopped_early = true;
      return result;
    }
  }
  if (m == 0 || n == 0) return result;

  // Accumulate tap entries per strip, then deliver at strip boundaries.
  std::vector<std::vector<BusCell>> tap_accum(hooks.tap_columns.size());
  Index strip_r0 = 0;
  bool stop = false;

  auto deliver_strip = [&](Index r1) {
    for (std::size_t t = 0; t < hooks.tap_columns.size() && !stop; ++t) {
      if (hooks.on_tap(hooks.tap_columns[t], strip_r0 + 1, tap_accum[t]) == HookAction::kStop) {
        stop = true;
      }
      tap_accum[t].clear();
    }
    strip_r0 = r1;
  };

  const auto row_visitor = [&](const dp::RowView& row) {
    if (stop) return;
    result.stats.cells += row.i == 0 ? 0 : n;
    if (row.i >= 1) {
      for (std::size_t j = 0; j < row.h.size(); ++j) {
        if (spec.recurrence.mode == AlignMode::kLocal && row.h[j] > result.best.score) {
          result.best = dp::LocalBest{row.h[j], row.i, static_cast<Index>(j)};
        }
      }
      for (std::size_t t = 0; t < hooks.tap_columns.size(); ++t) {
        const auto col = static_cast<std::size_t>(hooks.tap_columns[t]);
        tap_accum[t].push_back(BusCell{row.h[col], row.e[col]});
      }
    }
    const bool strip_end = row.i > 0 && (row.i % strip_rows == 0 || row.i == m);
    if (strip_end) {
      const Index s = (row.i - 1) / strip_rows;
      deliver_strip(row.i);
      if (!stop && hooks.special_row_interval != 0 && (s + 1) % hooks.special_row_interval == 0 &&
          (s + 1) * strip_rows < m && row.i == (s + 1) * strip_rows) {
        std::vector<BusCell> cells(static_cast<std::size_t>(n) + 1);
        for (Index j = 0; j <= n; ++j) {
          cells[static_cast<std::size_t>(j)] = BusCell{row.h[static_cast<std::size_t>(j)],
                                                       row.f[static_cast<std::size_t>(j)]};
        }
        hooks.on_special_row(row.i, cells, result.best);
      }
    }
  };
  if (spec.recurrence.mode == AlignMode::kLocal) {
    (void)dp::sweep_rows(spec.a, spec.b, spec.recurrence.scheme, AlignMode::kLocal,
                         dp::CellState::kH, row_visitor);
  } else {
    (void)dp::sweep_rows_from(spec.a, spec.b, spec.recurrence.scheme, spec.recurrence.corner,
                              row_visitor);
  }
  result.stopped_early = stop;
  return result;
}

}  // namespace cudalign::engine
