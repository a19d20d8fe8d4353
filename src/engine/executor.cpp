#include "engine/executor.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
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
/// (s, b - 1) — so the fold needs no synchronization.
struct StripSlot {
  Tally tally;
  std::array<double, kKernelIdCount> kernel_seconds{};  ///< See RunStats.
  dp::LocalBest best;
  bool found = false;                       ///< Row-major-first probe hit of the strip.
  Index found_i = 0, found_j = 0;
  std::vector<BusCell>* row = nullptr;      ///< Special strips only: vertex row r1.
};

}  // namespace

RunResult run_wavefront(const ProblemSpec& spec, const Hooks& hooks, ThreadPool* pool) {
  spec.recurrence.scheme.validate();
  CUDALIGN_CHECK(hooks.special_row_interval == 0 || hooks.on_special_row,
                 "special-row flushing requires an on_special_row sink");
  const bool local_pruning = spec.block_pruning && spec.recurrence.mode == AlignMode::kLocal;
  const bool goal_pruning = spec.block_pruning && spec.recurrence.mode == AlignMode::kGlobal;
  if (local_pruning) {
    CUDALIGN_CHECK(!hooks.on_tap && !hooks.find_value,
                   "local block pruning cannot be combined with on_tap or value probes");
  }
  if (goal_pruning) {
    CUDALIGN_CHECK(static_cast<bool>(spec.goal_reach),
                   "block pruning in global mode needs a goal and its goal_reach bound");
  }
  CUDALIGN_CHECK(spec.prune_floor >= 0, "prune floor ", spec.prune_floor, " is negative");
  CUDALIGN_CHECK(spec.prune_floor == 0 || spec.block_pruning, "prune floor ", spec.prune_floor,
                 " set without block pruning");
  if (pool == nullptr) pool = &ThreadPool::shared();

  // Resolve the process-wide kernel pin once, here, and hand it to every tile
  // as `forced`: select_kernel then reads no global state per tile. The
  // environment overrides fail fast (exit 2) on an unknown CUDALIGN_KERNEL or
  // CUDALIGN_SIMD value inside kernel_override() and active_simd_isa();
  // touching both here guarantees that happens before any tile work starts,
  // on this thread: an exit from a pool worker would join the pool from one
  // of its own threads during static destruction and hang.
  const KernelVariant* forced_kernel = kernel_override();
  (void)active_simd_isa();

  const Index m = check::checked_cast<Index>(spec.a.size());
  const Index n = check::checked_cast<Index>(spec.b.size());
  CUDALIGN_CHECK(!hooks.on_tap || n >= 1, "on_tap needs a last column: the problem has n = 0");

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
    CUDALIGN_CHECK(!hooks.on_tap && !hooks.find_value,
                   "resume cannot be combined with on_tap or value probes (their row-0 "
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
  result.stats.blocks_used = blocks - peel_col0;
  const bool resumed_pruning = local_pruning && row0 > 0;
  if (resumed_pruning) {
    CUDALIGN_CHECK(static_cast<Index>(spec.initial_prune.lagged.size()) == kPruneLag,
                   "a resumed pruned run needs the checkpoint's pruning state: ", kPruneLag,
                   " lagged bests, got ", spec.initial_prune.lagged.size());
  } else {
    CUDALIGN_CHECK(spec.initial_prune.lagged.empty(),
                   "initial pruning state is only meaningful when resuming a pruned run");
  }

  // Row-0 delivery of the last column (its boundary vertex, before any strip).
  if (hooks.on_tap) {
    const BusCell entry{rec.top_boundary(n).h, rec.top_boundary_e(n)};
    if (hooks.on_tap(0, std::span<const BusCell>(&entry, 1)) == HookAction::kStop) {
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
  // any.
  std::vector<Index> cuts(static_cast<std::size_t>(blocks) + 1);
  for (Index b = 0; b <= blocks; ++b) {
    cuts[static_cast<std::size_t>(b)] =
        b < peel_col0 ? 0
                      : peel_col0 + (n - peel_col0) * (b - peel_col0) / (blocks - peel_col0);
  }

  // The schedule fixes how many strips are in flight at once, and with it how
  // many slots every per-strip resource rotates over (index s % ring): the
  // scheduler's window gate admits strip s only once strip s - window - 1 has
  // retired, so window + 2 slots never overlap a live strip. A run of fewer
  // strips needs one slot per strip. The window stays below kPruneLag, so
  // strip s - kPruneLag, whose cumulative best the pruning bound of strip s
  // reads, has retired too (the tile body checks it). The window scales with
  // the scheduler's participants: the pool's workers and the caller.
  const auto participants = static_cast<Index>(pool->thread_count());
  const Index window = std::min(std::max<Index>(4, 2 * participants), kPruneLag - 1);
  const Index ring = std::min(strips, window + 2);

  check::BusAuditor* audit = hooks.bus_audit;
  if (audit != nullptr) audit->begin_run(n, strips, blocks, strip_rows, cuts, ring);

  // Horizontal bus: (H, F) per column vertex, initialized to row `row0` — the
  // top boundary for a fresh run, the restored special row for a resume.
  std::vector<BusCell> hbus(static_cast<std::size_t>(n) + 1);
  if (!spec.initial_hbus.empty()) {
    std::copy(spec.initial_hbus.begin(), spec.initial_hbus.end(), hbus.begin());
  } else {
    for (Index j = 0; j <= n; ++j) hbus[static_cast<std::size_t>(j)] = rec.top_boundary(j);
  }
  if (audit != nullptr) audit->seed_horizontal();

  // Vertical buses: (H, E) per row vertex of a strip, two buffers per strip
  // slot. Tile (s, b) reads buffer b % 2 and writes buffer (b + 1) % 2 of
  // slot s % ring; the tiles of one strip run in chunk order, so the buffer a
  // tile overwrites was consumed by its left neighbour. The last tile's
  // output, boundary `blocks`, is vertex column n: retire(s) hands it to
  // on_tap, and the window gate keeps strip s + ring, the next writer of
  // that slot, out until strip s has retired.
  const std::size_t vbus_len = static_cast<std::size_t>(strip_rows) + 1;
  std::vector<std::vector<BusCell>> vbus(2 * static_cast<std::size_t>(ring),
                                         std::vector<BusCell>(vbus_len));
  auto vbus_at = [&](Index boundary, Index strip) -> std::vector<BusCell>& {
    return vbus[static_cast<std::size_t>(2 * (strip % ring) + boundary % 2)];
  };

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
  // Special-row buffers: `ring` consecutive strips hold at most
  // (ring - 1) / interval + 1 special ones, so special strip k (counted
  // globally) takes buffer k % count without overlapping a live row. The
  // flush hook may swap a buffer's contents out (Hooks::on_special_row); the
  // strip that takes the buffer next resizes it.
  std::vector<std::vector<BusCell>> row_buffers(
      interval == 0 ? 0 : static_cast<std::size_t>((ring - 1) / interval + 1),
      std::vector<BusCell>(static_cast<std::size_t>(n) + 1));
  result.stats.bus_bytes =
      (hbus.size() + vbus.size() * vbus_len + row_buffers.size() * hbus.size()) * sizeof(BusCell);

  // Lagged bests, the pruning bound's run-time state (see
  // ProblemSpec::block_pruning): entry g % kPruneLag holds (g, cumulative
  // best after global strip g retired), written only by retire(g). Strip g
  // reads the entry of strip g - kPruneLag — the same slot, before retire(g)
  // overwrites it — and the window gate orders that strip's retirement before
  // strip g's admission. Seeded with the kPruneLag strips before the first:
  // zeros for a fresh run, the checkpoint's for a resume.
  std::array<std::pair<Index, Score>, kPruneLag> lagged{};
  for (Index k = 0; k < kPruneLag; ++k) {
    lagged[static_cast<std::size_t>((base_strip + k) % kPruneLag)] = {
        base_strip - kPruneLag + k,
        resumed_pruning ? spec.initial_prune.lagged[static_cast<std::size_t>(k)] : 0};
  }

  // The H a pruned tile publishes: 0 in local mode, where a fresh alignment
  // can start anywhere, and below every cell's H in global mode.
  const Score pruned_h = goal_pruning ? goal_floor(rec.scheme, m, n) : 0;

  auto tile = [&](Index s, Index b) {
    const Index r0 = row0 + s * strip_rows;
    const Index r1 = std::min(m, r0 + strip_rows);
    const Index rows = r1 - r0;
    const Index c0 = cuts[static_cast<std::size_t>(b)];
    const Index c1 = cuts[static_cast<std::size_t>(b + 1)];
    StripSlot& slot = slots[static_cast<std::size_t>(s % ring)];

    if (b == 0) {
      // The strip's first tile seeds its column-0 vertical bus and opens its
      // slot (retire() left it empty).
      auto& buf = vbus_at(0, s);
      for (Index i = r0; i <= r1; ++i) {
        buf[static_cast<std::size_t>(i - r0)] = rec.left_boundary(i);
      }
      if (audit != nullptr) audit->seed_vertical(s, rows);
      if (strip_is_special(s)) {
        auto& row = row_buffers[static_cast<std::size_t>((base_strip + s + 1) / interval) %
                                row_buffers.size()];
        row.resize(static_cast<std::size_t>(n) + 1);
        row[0] = BusCell{rec.left_boundary(r1).h, rec.left_boundary_f(r1)};
        slot.row = &row;
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
    const auto vbus_rows = static_cast<std::size_t>(rows) + 1;
    job.vbus_in = std::span<const BusCell>(vbus_at(b, s)).subspan(0, vbus_rows);
    job.vbus_out = std::span<BusCell>(vbus_at(b + 1, s)).subspan(0, vbus_rows);
    job.track_best = rec.mode == AlignMode::kLocal;
    job.find_value = hooks.find_value;

    // Audit: the tile consumes its row-r0 horizontal segment and its
    // incoming vertical boundary before publishing anything (both the
    // kernel and the pruning bound-scan below read them).
    if (audit != nullptr) {
      audit->read_horizontal(s, b, c0, c1);
      audit->read_vertical(s, b, rows);
    }

    // The tile's one pass over its bus inputs: kernel admission and the
    // pruning bound below both read it.
    const BusInputs in = scan_bus_inputs(job);
    bool pruned = false;
    if (goal_pruning) {
      // Goal pruning (see ProblemSpec::block_pruning).
      const WideScore max_in = std::max(in.h_hi, in.gap_hi);
      pruned = max_in + spec.goal_reach(r0, c0) < spec.goal;
    } else if (local_pruning) {
      const Index g = base_strip + s;
      const auto& [lag_strip, lag_best] = lagged[static_cast<std::size_t>(g % kPruneLag)];
      CUDALIGN_CHECK(lag_strip == g - kPruneLag, "strip ", g, " was admitted before strip ",
                     g - kPruneLag, " retired");
      const Score target = std::max(lag_best, spec.prune_floor);
      // Best incoming H across the tile's boundary (the corner arrives via
      // the vertical bus; hbus index 0 is the left neighbour's and stale),
      // and at least 0: in local mode a fresh alignment can start anywhere.
      const WideScore bound = WideScore{in.max_h()} +
                              static_cast<WideScore>(rec.scheme.match) * std::min(m - r0, n - c0);
      pruned = target > 0 && bound < target;
    }
    if (pruned) {
      // Publish safe lower bounds on both buses and skip the kernel.
      const BusCell low{pruned_h, kNegInf};
      std::fill(job.hbus.begin() + 1, job.hbus.end(), low);
      std::fill(job.vbus_out.begin(), job.vbus_out.end(), low);
    }

    // One kernel call, folded into the strip's slot. Scratch is reused
    // across tiles of the same worker thread.
    auto call = [&](const TileJob& part, const BusInputs& part_in) {
      static thread_local TileScratch scratch;
      const Timer kernel_timer;
      TileResult tr = run_tile(part, part_in, scratch, forced_kernel);
      slot.kernel_seconds[static_cast<std::size_t>(tr.kernel)] += kernel_timer.seconds();
      Tally& tally = slot.tally;
      ++tally.tiles;
      tally.cells += tr.cells;
      KernelTally& kernel = tally.kernels[static_cast<std::size_t>(tr.kernel)];
      ++kernel.tiles;
      kernel.cells += tr.cells;
      if (tr.rerun) {
        ++tally.narrow_rerun_tiles;
        tally.narrow_rerun_cells += tr.cells;
      }
      if (tr.best.score > 0) merge_best(slot.best, tr.best);
      if (tr.found && (!slot.found || std::pair{tr.found_i, tr.found_j} <
                                          std::pair{slot.found_i, slot.found_j})) {
        slot.found = true;
        slot.found_i = tr.found_i;
        slot.found_j = tr.found_j;
      }
    };
    if (pruned) {
      ++slot.tally.tiles;
      ++slot.tally.pruned_tiles;
      slot.tally.pruned_cells += static_cast<WideScore>(rows) * (c1 - c0);
    } else if (peel_row0 && s == 0 && rows > 1) {
      // Row 1 apart, then rows (1, r1] from genuine H. The second call
      // publishes its corner (row 1) without E, so the first call's entry is
      // kept; the row-major-first probe hit wins, as across tiles.
      TileJob head = job;
      head.r1 = 1;
      head.vbus_in = job.vbus_in.first(2);
      head.vbus_out = job.vbus_out.first(2);
      call(head, scan_bus_inputs(head));
      const BusCell row1 = job.vbus_out[1];
      TileJob rest = job;
      rest.r0 = 1;
      rest.vbus_in = job.vbus_in.subspan(1);
      rest.vbus_out = job.vbus_out.subspan(1);
      call(rest, scan_bus_inputs(rest));
      job.vbus_out[1] = row1;
    } else {
      call(job, in);
    }
    if (audit != nullptr) {
      audit->write_horizontal(s, b, c0, c1);
      audit->write_vertical(s, b, rows);
    }

    // Special-row capture happens here, inside the tile: the down successor
    // (s + 1, b) may overwrite the hbus segment before the strip retires.
    if (slot.row != nullptr) {
      std::copy(hbus.begin() + c0 + 1, hbus.begin() + c1 + 1, slot.row->begin() + c0 + 1);
    }
  };

  // Strip retirement, in ascending strip order: the only place results become
  // observable. Returns false to stop the run.
  const Index total_tiles = strips * blocks;
  auto retire = [&](Index s) -> bool {
    StripSlot& slot = slots[static_cast<std::size_t>(s % ring)];
    const Index r0 = row0 + s * strip_rows;
    const Index r1 = std::min(m, r0 + strip_rows);
    const bool special = slot.row != nullptr;
    RunStats& stats = result.stats;
    // Bus traffic (see Tally): each tile reads and writes its horizontal
    // segment (c1 - c0 + 1 cells, n + blocks over the strip) and vertical
    // boundary; a special row re-reads the strip's n published cells.
    constexpr auto kCell = static_cast<std::int64_t>(sizeof(BusCell));
    slot.tally.hbus_bytes = (2 * (n + blocks) + (special ? n : 0)) * kCell;
    slot.tally.vbus_bytes = 2 * blocks * (r1 - r0 + 1) * kCell;
    stats += slot.tally;
    for (std::size_t k = 0; k < kKernelIdCount; ++k) {
      stats.kernel_seconds[k] += slot.kernel_seconds[k];
    }
    ++stats.strips;
    if (slot.best.score > 0) merge_best(result.best, slot.best);
    const Index g = base_strip + s;
    lagged[static_cast<std::size_t>(g % kPruneLag)] = {g, result.best.score};
    // The strip's last column is the last tile's outgoing vertical bus.
    if (audit != nullptr) audit->read_vertical(s, blocks, r1 - r0);

    bool go = true;
    if (slot.found) {
      result.found = true;
      result.found_i = slot.found_i;
      result.found_j = slot.found_j;
      go = false;
    }
    if (go && hooks.on_tap) {
      const auto column = std::span<const BusCell>(vbus_at(blocks, s))
                              .subspan(1, static_cast<std::size_t>(r1 - r0));
      go = hooks.on_tap(r0 + 1, column) != HookAction::kStop;
    }
    if (go && special) {
      if (audit != nullptr) audit->flush_handoff(s);
      // Checkpoint hand-off: the merged best covers every tile of strips
      // <= s, exactly the cells of rows <= r1.
      PruneState prune;
      if (local_pruning) {
        for (Index k = 1; k <= kPruneLag; ++k) {
          prune.lagged.push_back(lagged[static_cast<std::size_t>((g + k) % kPruneLag)].second);
        }
      }
      Timer flush_timer;
      hooks.on_special_row(r1, *slot.row, result.best, prune);
      stats.special_row_wait_seconds += flush_timer.seconds();
    }
    if (go && hooks.on_progress) hooks.on_progress((s + 1) * blocks, total_tiles);
    slot = StripSlot{};
    result.stopped_early = !go;
    return go;
  };

  // Strip-bucket spans give the run report its wavefront phase profile:
  // bucket k ends when its last strip retires (or the run stops). The stamps
  // are taken in retire(), which the scheduler serializes, and recorded on
  // this thread once the run returns.
  obs::Telemetry* telemetry = hooks.telemetry;
  const Index bucket_size =
      telemetry != nullptr ? (strips + kSpanBuckets - 1) / kSpanBuckets : 0;
  std::vector<std::pair<Index, double>> bucket_ends;  // (last strip, seconds)
  const double start = timer.seconds();
  sched::SchedOptions sched_options;
  sched_options.strips = strips;
  sched_options.blocks = blocks;
  sched_options.window = window;
  const sched::SchedStats sched_stats =
      sched::run_tile_graph(sched_options, *pool, tile, [&](Index s) {
        const bool go = retire(s);
        if (bucket_size > 0 && ((s + 1) % bucket_size == 0 || s + 1 == strips || !go)) {
          bucket_ends.emplace_back(s, timer.seconds());
        }
        return go;
      });
  result.stats.tiles_stolen = static_cast<Index>(sched_stats.tiles_stolen);
  result.stats.starvation_waits = static_cast<Index>(sched_stats.starvation_waits);
  Index first = 0;
  double begun = start;
  for (const auto& [last, seconds] : bucket_ends) {
    telemetry->record("strips " + std::to_string(first) + "-" + std::to_string(last),
                      seconds - begun);
    first = last + 1;
    begun = seconds;
  }

  result.stats.seconds = timer.seconds();
  return result;
}

Score goal_floor(const scoring::Scheme& scheme, Index m, Index n) {
  return check::checked_cast<Score>(-(2 * WideScore{scheme.gap_first} +
                                      WideScore{scheme.gap_ext} * (WideScore{m} + n)));
}

namespace {

std::string usage_summary(const std::array<KernelTally, kKernelIdCount>& kernels,
                          const std::array<double, kKernelIdCount>* seconds) {
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
    if (seconds != nullptr) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "/%.3fs", (*seconds)[id]);
      out += buf;
    }
  }
  return out;
}

}  // namespace

std::string kernel_usage_summary(const std::array<KernelTally, kKernelIdCount>& kernels) {
  return usage_summary(kernels, nullptr);
}

std::string kernel_usage_summary(const std::array<KernelTally, kKernelIdCount>& kernels,
                                 const std::array<double, kKernelIdCount>& seconds) {
  return usage_summary(kernels, &seconds);
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

  CUDALIGN_CHECK(!hooks.on_tap || n >= 1, "on_tap needs a last column: the problem has n = 0");

  // Row-0 delivery of the last column, mirroring run_wavefront.
  if (hooks.on_tap) {
    const BusCell entry{spec.recurrence.top_boundary(n).h, spec.recurrence.top_boundary_e(n)};
    if (hooks.on_tap(0, std::span<const BusCell>(&entry, 1)) == HookAction::kStop) {
      result.stopped_early = true;
      return result;
    }
  }
  if (m == 0 || n == 0) return result;

  // Accumulate the last column per strip, then deliver at strip boundaries.
  std::vector<BusCell> column;
  std::vector<BusCell> special_row;  // Handed to on_special_row as the engine's ring entry is.
  Index strip_r0 = 0;
  bool stop = false;

  auto deliver_strip = [&](Index r1) {
    if (hooks.on_tap && hooks.on_tap(strip_r0 + 1, column) == HookAction::kStop) stop = true;
    column.clear();
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
      const auto last = static_cast<std::size_t>(n);
      column.push_back(BusCell{row.h[last], row.e[last]});
    }
    const bool strip_end = row.i > 0 && (row.i % strip_rows == 0 || row.i == m);
    if (strip_end) {
      const Index s = (row.i - 1) / strip_rows;
      deliver_strip(row.i);
      if (!stop && hooks.special_row_interval != 0 && (s + 1) % hooks.special_row_interval == 0 &&
          (s + 1) * strip_rows < m && row.i == (s + 1) * strip_rows) {
        special_row.resize(static_cast<std::size_t>(n) + 1);
        for (Index j = 0; j <= n; ++j) {
          special_row[static_cast<std::size_t>(j)] = BusCell{row.h[static_cast<std::size_t>(j)],
                                                             row.f[static_cast<std::size_t>(j)]};
        }
        hooks.on_special_row(row.i, special_row, result.best, PruneState{});
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
