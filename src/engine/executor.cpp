#include "engine/executor.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>

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

/// Assembles one pending special row from per-chunk segments.
struct PendingRow {
  std::vector<BusCell> cells;
  Index chunks_done = 0;
};

/// Dataflow executor (ProblemSpec::executor == kDataflow): drives the tile
/// grid through sched::run_tile_graph instead of the per-diagonal barrier.
/// Validation, kernel pinning and the m/n == 0 fast path mirror run_wavefront
/// exactly; `forced_kernel` is already resolved by the caller.
///
/// Per-strip resources (vertical-bus planes, result slots, the pending
/// special row, pruning-closure rows) rotate over wcap = window + 2 buffers
/// indexed strip % wcap. Safe because the scheduler's window gate keeps at
/// most window + 1 strips in flight: strip s + wcap cannot enter before the
/// driver retired strip s, so plane reuse never overlaps a live strip.
RunResult run_dataflow(const ProblemSpec& spec, const Hooks& hooks, ThreadPool* pool,
                       const KernelVariant* forced_kernel) {
  CUDALIGN_CHECK(hooks.tap_columns.empty() && !hooks.find_value,
                 "the dataflow executor does not support taps or value probes (their "
                 "delivery is keyed to diagonal order; use the lockstep executor)");
  const Index m = check::checked_cast<Index>(spec.a.size());
  const Index n = check::checked_cast<Index>(spec.b.size());

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
  }
  const Index base_strip = row0 / strip_rows;
  const Index strips = (m - row0 + strip_rows - 1) / strip_rows;
  const Index blocks = std::max<Index>(1, std::min(grid.blocks, n));
  result.best = spec.initial_best;
  result.stats.blocks_used = blocks;
  result.stats.threads_used = grid.threads;
  const Recurrence& rec = spec.recurrence;

  if (m == 0 || n == 0) {
    result.stats.seconds = timer.seconds();
    return result;
  }

  std::vector<Index> cuts(static_cast<std::size_t>(blocks) + 1);
  for (Index b = 0; b <= blocks; ++b) {
    cuts[static_cast<std::size_t>(b)] = n * b / blocks;
  }

  const int workers = std::max<int>(1, static_cast<int>(pool->worker_count()));
  const Index window = std::max<Index>(4, 2 * static_cast<Index>(workers));
  const Index wcap = window + 2;

  check::BusAuditor* audit = hooks.bus_audit;
  if (audit != nullptr) {
    audit->begin_run(n, strips, blocks, strip_rows, cuts,
                     check::OrderModel::kTileHappensBefore, wcap);
  }

  std::vector<BusCell> hbus(static_cast<std::size_t>(n) + 1);
  if (!spec.initial_hbus.empty()) {
    std::copy(spec.initial_hbus.begin(), spec.initial_hbus.end(), hbus.begin());
  } else {
    for (Index j = 0; j <= n; ++j) hbus[static_cast<std::size_t>(j)] = rec.top_boundary(j);
  }
  if (audit != nullptr) audit->seed_horizontal();

  const std::size_t vbus_len = static_cast<std::size_t>(strip_rows) + 1;
  std::vector<std::vector<BusCell>> vbus(static_cast<std::size_t>(blocks + 1) *
                                         static_cast<std::size_t>(wcap));
  for (auto& buf : vbus) buf.resize(vbus_len);
  auto vbus_at = [&](Index boundary, Index strip) -> std::vector<BusCell>& {
    return vbus[static_cast<std::size_t>(boundary * wcap + strip % wcap)];
  };
  result.stats.bus_bytes = hbus.size() * sizeof(BusCell) + vbus.size() * vbus_len * sizeof(BusCell);

  auto strip_is_special = [&](Index s) {
    if (hooks.special_row_interval == 0) return false;
    const Index g = base_strip + s;
    const Index r1 = (g + 1) * strip_rows;
    return (g + 1) % hooks.special_row_interval == 0 && r1 < m;
  };

  /// Rotating per-strip state, consumed by the driver at strip retirement.
  struct StripSlot {
    std::vector<TileResult> results;
    std::vector<std::uint8_t> pruned;     ///< Allocated only under pruning.
    std::vector<BusCell> special_row;     ///< Filled only on special strips.
  };
  std::vector<StripSlot> slots(static_cast<std::size_t>(wcap));
  for (StripSlot& slot : slots) {
    slot.results.resize(static_cast<std::size_t>(blocks));
    if (spec.block_pruning) slot.pruned.assign(static_cast<std::size_t>(blocks), 0);
  }

  // Pruning closure (see ProblemSpec::block_pruning): closure[s % wcap][b]
  // holds the best score over tile (s, b)'s ancestor rectangle plus the
  // resume seed. Plain (non-atomic) Score: the scheduler's dependency edges
  // order every access — (s, b) reads rows written by (s-1, b) and (s, b-1),
  // and slot reuse at wcap distance sits below (s, b) in the same column
  // chain.
  std::vector<Score> closure;
  if (spec.block_pruning) {
    closure.assign(static_cast<std::size_t>(wcap) * static_cast<std::size_t>(blocks), 0);
  }

  const Index total_tiles = strips * blocks;

  auto body = [&](Index s, Index b, int /*worker*/) {
    const Index r0 = row0 + s * strip_rows;
    const Index r1 = std::min(m, r0 + strip_rows);
    const Index c0 = cuts[static_cast<std::size_t>(b)];
    const Index c1 = cuts[static_cast<std::size_t>(b + 1)];
    const Index d = s + b;  // Logical diagonal, for audit reports only.
    StripSlot& slot = slots[static_cast<std::size_t>(s % wcap)];

    if (b == 0) {
      // Column-0 seeding happens on the worker that opens the strip (the
      // lockstep driver does this per diagonal; here there is no driver
      // touchpoint before the strip retires).
      auto& buf = vbus_at(0, s);
      for (Index i = r0; i <= r1; ++i) {
        buf[static_cast<std::size_t>(i - r0)] = rec.left_boundary(i);
      }
      if (audit != nullptr) audit->seed_vertical(s, r1 - r0);
      if (strip_is_special(s)) {
        slot.special_row.assign(static_cast<std::size_t>(n) + 1, BusCell{});
        slot.special_row[0] = BusCell{rec.left_boundary(r1).h, rec.left_boundary_f(r1)};
      }
    }

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
    const Index rows = r1 - r0;
    job.vbus_in = std::span<const BusCell>(vbus_at(b, s)).subspan(0,
                                                                  static_cast<std::size_t>(rows) + 1);
    job.vbus_out = std::span<BusCell>(vbus_at(b + 1, s)).subspan(0,
                                                                 static_cast<std::size_t>(rows) + 1);
    job.track_best = rec.mode == AlignMode::kLocal;

    if (audit != nullptr) {
      audit->read_horizontal(s, b, d, c0, c1);
      audit->read_vertical(s, b, d, rows);
    }

    bool tile_pruned = false;
    Score closure_in = 0;
    if (spec.block_pruning) {
      closure_in = spec.initial_best.score;
      if (s > 0) {
        closure_in = std::max(
            closure_in, closure[static_cast<std::size_t>(((s - 1) % wcap) * blocks + b)]);
      }
      if (b > 0) {
        closure_in =
            std::max(closure_in, closure[static_cast<std::size_t>((s % wcap) * blocks + b - 1)]);
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
          slot.results[static_cast<std::size_t>(b)] = TileResult{};
          slot.pruned[static_cast<std::size_t>(b)] = 1;
          tile_pruned = true;
          if (audit != nullptr) {
            audit->write_horizontal(s, b, d, c0, c1);
            audit->write_vertical(s, b, d, rows);
          }
        }
      }
    }

    if (!tile_pruned) {
      static thread_local TileScratch scratch;
      slot.results[static_cast<std::size_t>(b)] = run_tile(job, scratch, forced_kernel);
      if (spec.block_pruning) slot.pruned[static_cast<std::size_t>(b)] = 0;
      if (audit != nullptr) {
        audit->write_horizontal(s, b, d, c0, c1);
        audit->write_vertical(s, b, d, rows);
      }
    }
    if (spec.block_pruning) {
      closure[static_cast<std::size_t>((s % wcap) * blocks + b)] =
          std::max(closure_in, slot.results[static_cast<std::size_t>(b)].best.score);
    }

    // Special-row capture must happen here, inside the tile: the down
    // successor (s + 1, b) is released the moment this body returns and would
    // overwrite the hbus segment before the driver ever sees it.
    if (strip_is_special(s)) {
      for (Index j = c0 + 1; j <= c1; ++j) {
        slot.special_row[static_cast<std::size_t>(j)] = hbus[static_cast<std::size_t>(j)];
      }
    }
  };

  auto strip_done = [&](Index s) -> bool {
    StripSlot& slot = slots[static_cast<std::size_t>(s % wcap)];
    const Index r0 = row0 + s * strip_rows;
    const Index r1 = std::min(m, r0 + strip_rows);
    const bool special = strip_is_special(s);
    for (Index b = 0; b < blocks; ++b) {
      TileResult& tr = slot.results[static_cast<std::size_t>(b)];
      result.stats.cells += tr.cells;
      ++result.stats.tiles;
      const Index c0 = cuts[static_cast<std::size_t>(b)];
      const Index c1 = cuts[static_cast<std::size_t>(b + 1)];
      if (spec.block_pruning && slot.pruned[static_cast<std::size_t>(b)]) {
        ++result.stats.pruned_tiles;
        result.stats.pruned_cells += static_cast<WideScore>(r1 - r0) * (c1 - c0);
      } else {
        KernelTally& tally = result.stats.kernels[static_cast<std::size_t>(tr.kernel)];
        ++tally.tiles;
        tally.cells += tr.cells;
      }
      // Bus traffic accounting, identical to lockstep (RunStats doc).
      const auto h_seg_bytes =
          static_cast<std::int64_t>((c1 - c0 + 1) * static_cast<Index>(sizeof(BusCell)));
      const auto v_seg_bytes =
          static_cast<std::int64_t>((r1 - r0 + 1) * static_cast<Index>(sizeof(BusCell)));
      ++result.stats.hbus_reads;
      ++result.stats.hbus_writes;
      ++result.stats.vbus_reads;
      ++result.stats.vbus_writes;
      result.stats.hbus_bytes += 2 * h_seg_bytes;
      result.stats.vbus_bytes += 2 * v_seg_bytes;
      if (special) {
        ++result.stats.hbus_reads;
        result.stats.hbus_bytes +=
            static_cast<std::int64_t>((c1 - c0) * static_cast<Index>(sizeof(BusCell)));
      }
      if (tr.best.score > 0) merge_best(result.best, tr.best);
    }
    ++result.stats.strips;
    if (special) {
      // Diagonal coordinate for strip retirement: the strip's last external
      // diagonal (s + blocks - 1), matching the tile that completed it.
      if (audit != nullptr) audit->flush_handoff(s, s + blocks - 1);
      // Checkpoint hand-off: the merged best here covers every tile of
      // strips <= s — a superset of rows <= r1, which is all a resume needs
      // (re-merging recomputed candidates is idempotent). The value can
      // differ from lockstep's at the same row; final results cannot.
      Timer flush_timer;
      hooks.on_special_row(r1, slot.special_row, result.best);
      result.stats.special_row_wait_seconds += flush_timer.seconds();
    }
    if (hooks.on_progress) hooks.on_progress((s + 1) * blocks, total_tiles);
    return true;
  };

  sched::SchedOptions sched_options;
  sched_options.strips = strips;
  sched_options.blocks = blocks;
  sched_options.workers = workers;
  sched_options.window = window;
  const sched::SchedStats sched_stats = sched::run_tile_graph(sched_options, body, strip_done);
  result.stats.tiles_stolen = static_cast<Index>(sched_stats.tiles_stolen);
  result.stats.starvation_waits = static_cast<Index>(sched_stats.starvation_waits);

  result.stats.seconds = timer.seconds();
  return result;
}

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

  if (spec.executor == ExecutorKind::kDataflow) {
    return run_dataflow(spec, hooks, pool, forced_kernel);
  }

  const Index m = check::checked_cast<Index>(spec.a.size());
  const Index n = check::checked_cast<Index>(spec.b.size());
  for (std::size_t t = 0; t < hooks.tap_columns.size(); ++t) {
    const Index c = hooks.tap_columns[t];
    CUDALIGN_CHECK(c >= 1 && c <= n, "tap columns must be in [1, n]");
    CUDALIGN_CHECK(t == 0 || hooks.tap_columns[t - 1] < c, "tap columns must be unique");
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
    CUDALIGN_CHECK(hooks.tap_columns.empty() && !hooks.find_value,
                   "resume cannot be combined with taps or value probes (their row-0 "
                   "boundary delivery would not reflect the restored bus)");
  }
  const Index base_strip = row0 / strip_rows;
  const Index strips = (m - row0 + strip_rows - 1) / strip_rows;
  const Index blocks = std::max<Index>(1, std::min(grid.blocks, n));
  result.best = spec.initial_best;
  result.stats.blocks_used = blocks;
  result.stats.threads_used = grid.threads;

  const Recurrence& rec = spec.recurrence;

  // Row-0 tap delivery (boundary vertices, before any strip).
  for (std::size_t t = 0; t < hooks.tap_columns.size(); ++t) {
    const Index col = hooks.tap_columns[t];
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

  // Chunk boundaries: blocks near-equal column spans.
  std::vector<Index> cuts(static_cast<std::size_t>(blocks) + 1);
  for (Index b = 0; b <= blocks; ++b) {
    cuts[static_cast<std::size_t>(b)] = n * b / blocks;
  }

  check::BusAuditor* audit = hooks.bus_audit;
  if (audit != nullptr) {
    audit->begin_run(n, strips, blocks, strip_rows, cuts);
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

  // Vertical buses: (H, E) per row vertex of the current strip, one buffer
  // per chunk boundary, double-buffered by strip parity (same-diagonal
  // hazard; see executor.hpp).
  const std::size_t vbus_len = static_cast<std::size_t>(strip_rows) + 1;
  std::vector<std::vector<BusCell>> vbus(static_cast<std::size_t>(blocks + 1) * 2);
  for (auto& buf : vbus) buf.resize(vbus_len);
  auto vbus_at = [&](Index boundary, Index strip) -> std::vector<BusCell>& {
    return vbus[static_cast<std::size_t>(boundary * 2 + (strip & 1))];
  };

  result.stats.bus_bytes = hbus.size() * sizeof(BusCell) + vbus.size() * vbus_len * sizeof(BusCell);

  // Special-row assembly state. Strip indices here are *global* (offset by
  // base_strip), so a resumed run flushes exactly the rows a fresh run would.
  std::map<Index, PendingRow> pending_rows;
  auto strip_is_special = [&](Index s) {
    if (hooks.special_row_interval == 0) return false;
    const Index g = base_strip + s;
    const Index r1 = (g + 1) * strip_rows;
    return (g + 1) % hooks.special_row_interval == 0 && r1 < m;
  };

  std::vector<TileResult> tile_results(static_cast<std::size_t>(blocks));
  std::vector<std::vector<Index>> tile_taps(static_cast<std::size_t>(blocks));
  // Per-strip best accumulators, folded into result.best only when the strip
  // completes: the best handed to on_special_row is then exactly the best
  // over rows <= r1 — the same value the dataflow executor's strip watermark
  // produces, keeping checkpoints executor-independent. (Merging per tile in
  // diagonal order would fold tiles from strips below the flushed row.)
  std::vector<dp::LocalBest> strip_best(static_cast<std::size_t>(strips));
  // Pruning-only state, not allocated otherwise. tile_pruned is
  // std::uint8_t, not bool: tiles on one diagonal write distinct slots
  // concurrently, and vector<bool>'s bit packing would turn those into
  // read-modify-write races on shared words. `closure` is the ancestor
  // closure of best scores (see ProblemSpec::block_pruning), double-buffered
  // by strip parity like the vertical bus: tile (s, b) reads rows written at
  // least one diagonal earlier and same-diagonal tiles write distinct slots.
  std::vector<std::uint8_t> tile_pruned(
      spec.block_pruning ? static_cast<std::size_t>(blocks) : 0);
  std::vector<Score> closure(spec.block_pruning ? 2 * static_cast<std::size_t>(blocks) : 0);

  // Diagonal-bucket spans: the wavefront phase profile for the run report.
  obs::Telemetry* telemetry = hooks.telemetry;
  const Index total_tiles = strips * blocks;
  Index tiles_completed = 0;  // For on_progress (per-tile, see Hooks).
  const Index total_diagonals = strips + blocks - 1;
  const Index bucket_size =
      telemetry != nullptr
          ? (total_diagonals + kDiagonalBuckets - 1) / kDiagonalBuckets
          : 0;

  for (Index d = 0; d < total_diagonals && !result.stopped_early; ++d) {
    if (bucket_size > 0 && d % bucket_size == 0) {
      const Index last = std::min(d + bucket_size, total_diagonals) - 1;
      telemetry->begin("diagonals " + std::to_string(d) + "-" + std::to_string(last));
    }
    const Index s_lo = std::max<Index>(0, d - blocks + 1);
    const Index s_hi = std::min<Index>(strips - 1, d);

    // Fill the column-0 vertical bus for the strip entering the wavefront.
    if (d < strips) {
      const Index s = d;
      const Index r0 = row0 + s * strip_rows;
      const Index r1 = std::min(m, r0 + strip_rows);
      auto& buf = vbus_at(0, s);
      for (Index i = r0; i <= r1; ++i) {
        buf[static_cast<std::size_t>(i - r0)] = rec.left_boundary(i);
      }
      if (audit != nullptr) audit->seed_vertical(s, r1 - r0);
    }

    // Launch the diagonal.
    struct Slot {
      Index s, b;
    };
    std::vector<Slot> slots;
    for (Index s = s_hi; s >= s_lo; --s) slots.push_back(Slot{s, d - s});

    pool->parallel_for(slots.size(), [&](std::size_t idx) {
      const auto [s, b] = slots[idx];
      const Index r0 = row0 + s * strip_rows;
      const Index r1 = std::min(m, r0 + strip_rows);
      const Index c0 = cuts[static_cast<std::size_t>(b)];
      const Index c1 = cuts[static_cast<std::size_t>(b + 1)];

      // Taps covered by this chunk.
      auto& taps = tile_taps[static_cast<std::size_t>(b)];
      taps.clear();
      for (Index col : hooks.tap_columns) {
        if (col > c0 && col <= c1) taps.push_back(col);
      }

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
      const Index rows = r1 - r0;
      job.vbus_in = std::span<const BusCell>(vbus_at(b, s)).subspan(0,
                                                                    static_cast<std::size_t>(rows) + 1);
      job.vbus_out = std::span<BusCell>(vbus_at(b + 1, s)).subspan(0,
                                                                   static_cast<std::size_t>(rows) + 1);
      job.tap_cols = taps;
      job.track_best = rec.mode == AlignMode::kLocal;
      job.find_value = hooks.find_value;

      // Audit: the tile consumes its row-r0 horizontal segment and its
      // incoming vertical boundary before publishing anything (both the
      // kernel and the pruning bound-scan below read them).
      if (audit != nullptr) {
        audit->read_horizontal(s, b, d, c0, c1);
        audit->read_vertical(s, b, d, r1 - r0);
      }

      Score closure_in = 0;
      if (spec.block_pruning) {
        tile_pruned[static_cast<std::size_t>(b)] = false;
        closure_in = spec.initial_best.score;
        if (s > 0) {
          closure_in =
              std::max(closure_in, closure[static_cast<std::size_t>(((s - 1) & 1) * blocks + b)]);
        }
        if (b > 0) {
          closure_in =
              std::max(closure_in, closure[static_cast<std::size_t>((s & 1) * blocks + b - 1)]);
        }
      }
      if (spec.block_pruning && closure_in > 0) {
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
          tile_results[static_cast<std::size_t>(b)] = TileResult{};
          tile_pruned[static_cast<std::size_t>(b)] = true;
          closure[static_cast<std::size_t>((s & 1) * blocks + b)] = closure_in;
          if (audit != nullptr) {
            audit->write_horizontal(s, b, d, c0, c1);
            audit->write_vertical(s, b, d, r1 - r0);
          }
          return;
        }
      }

      // Scratch is reused across tiles of the same worker thread.
      static thread_local TileScratch scratch;
      tile_results[static_cast<std::size_t>(b)] = run_tile(job, scratch, forced_kernel);
      if (spec.block_pruning) {
        closure[static_cast<std::size_t>((s & 1) * blocks + b)] =
            std::max(closure_in, tile_results[static_cast<std::size_t>(b)].best.score);
      }
      if (audit != nullptr) {
        audit->write_horizontal(s, b, d, c0, c1);
        audit->write_vertical(s, b, d, r1 - r0);
      }
    });

    // Deterministic post-processing in ascending strip order.
    for (Index s = s_lo; s <= s_hi && !result.stopped_early; ++s) {
      const Index b = d - s;
      TileResult& tr = tile_results[static_cast<std::size_t>(b)];
      result.stats.cells += tr.cells;
      ++result.stats.tiles;
      if (spec.block_pruning && tile_pruned[static_cast<std::size_t>(b)]) {
        ++result.stats.pruned_tiles;
        const Index pr0 = row0 + s * strip_rows;
        result.stats.pruned_cells +=
            static_cast<WideScore>(std::min(m, pr0 + strip_rows) - pr0) *
            (cuts[static_cast<std::size_t>(b + 1)] - cuts[static_cast<std::size_t>(b)]);
      } else {
        KernelTally& tally = result.stats.kernels[static_cast<std::size_t>(tr.kernel)];
        ++tally.tiles;
        tally.cells += tr.cells;
      }
      const Index r0 = row0 + s * strip_rows;
      const Index r1 = std::min(m, r0 + strip_rows);
      const Index c0 = cuts[static_cast<std::size_t>(b)];
      const Index c1 = cuts[static_cast<std::size_t>(b + 1)];

      // Bus traffic accounting (see RunStats): one read + one write per bus
      // per tile, pruned or not (pruning scans the boundary and publishes
      // lower bounds).
      const auto h_seg_bytes =
          static_cast<std::int64_t>((c1 - c0 + 1) * static_cast<Index>(sizeof(BusCell)));
      const auto v_seg_bytes =
          static_cast<std::int64_t>((r1 - r0 + 1) * static_cast<Index>(sizeof(BusCell)));
      ++result.stats.hbus_reads;
      ++result.stats.hbus_writes;
      ++result.stats.vbus_reads;
      ++result.stats.vbus_writes;
      result.stats.hbus_bytes += 2 * h_seg_bytes;
      result.stats.vbus_bytes += 2 * v_seg_bytes;

      if (tr.best.score > 0) merge_best(strip_best[static_cast<std::size_t>(s)], tr.best);
      if (tr.found && !result.found) {
        result.found = true;
        result.found_i = tr.found_i;
        result.found_j = tr.found_j;
        result.stopped_early = true;
      }

      // Tap deliveries for this tile's rows.
      const auto& taps = tile_taps[static_cast<std::size_t>(b)];
      for (std::size_t t = 0; t < taps.size() && !result.stopped_early; ++t) {
        if (hooks.on_tap(taps[t], r0 + 1, tr.taps[t]) == HookAction::kStop) {
          result.stopped_early = true;
        }
      }

      if (b == blocks - 1) {
        ++result.stats.strips;
        if (strip_best[static_cast<std::size_t>(s)].score > 0) {
          merge_best(result.best, strip_best[static_cast<std::size_t>(s)]);
        }
      }

      // Special-row segment assembly.
      if (strip_is_special(s) && !result.stopped_early) {
        auto [it, inserted] = pending_rows.try_emplace(s);
        PendingRow& row = it->second;
        if (inserted) {
          row.cells.resize(static_cast<std::size_t>(n) + 1);
          row.cells[0] = BusCell{rec.left_boundary(r1).h, rec.left_boundary_f(r1)};
        }
        // The tile just published row r1 into hbus (c0..c1].
        for (Index j = c0 + 1; j <= c1; ++j) {
          row.cells[static_cast<std::size_t>(j)] = hbus[static_cast<std::size_t>(j)];
        }
        ++result.stats.hbus_reads;
        result.stats.hbus_bytes +=
            static_cast<std::int64_t>((c1 - c0) * static_cast<Index>(sizeof(BusCell)));
        if (++row.chunks_done == blocks) {
          if (audit != nullptr) audit->flush_handoff(s, d);
          // Checkpoint hand-off: best-so-far here covers (at least) every
          // cell of rows <= r1 — all earlier strips have fully completed and
          // this strip just merged its last chunk.
          Timer flush_timer;
          hooks.on_special_row(r1, row.cells, result.best);
          result.stats.special_row_wait_seconds += flush_timer.seconds();
          pending_rows.erase(it);
        }
      }
    }
    ++result.stats.diagonals;
    if (bucket_size > 0 &&
        ((d + 1) % bucket_size == 0 || d + 1 == total_diagonals || result.stopped_early)) {
      telemetry->end();
    }
    tiles_completed += s_hi - s_lo + 1;
    if (hooks.on_progress) hooks.on_progress(tiles_completed, total_tiles);
  }

  // An early stop leaves partial strips unfolded; their tiles did run, so
  // fold them for the returned best (idempotent for completed strips — the
  // merge is a max under a total order).
  for (const dp::LocalBest& sb : strip_best) {
    if (sb.score > 0) merge_best(result.best, sb);
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
