// Stage 1 (paper §IV-B): CUDAlign 1.0's wavefront Smith-Waterman with one
// modification — special rows are flushed from the horizontal bus to the SRA
// at the flush interval derived from the SRA budget. Each row file carries
// the wavefront's resume state at that row in its trailer, so the rows are
// Stage 1's checkpoint. With block pruning on, a cheap banded pass first
// finds a lower bound on the optimum that seeds every tile's pruning bound
// (prune_floor below).
#include "core/stages.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>

#include "check/checked.hpp"
#include "common/timer.hpp"
#include "engine/kernel_registry.hpp"
#include "obs/telemetry.hpp"
#include "sra/async_writer.hpp"

namespace cudalign::core {

namespace {

/// Seed length: s1's seeds are sampled every kSeed positions, so any exact
/// match of 2 * kSeed - 1 bases or more contains one of them whole.
constexpr Index kSeed = 16;
/// Diagonal (j - i) bin width of the seed vote.
constexpr Index kBin = 64;
/// At most this many of s1's samples of one seed are stored (repeats), which
/// bounds the vote at kMaxRepeats hits per s0 position.
constexpr int kMaxRepeats = 8;
/// Band pass geometry: strips of kBandRows rows, each covering the columns
/// within kBandHalf of the diagonal over its rows.
constexpr Index kBandRows = 64;
constexpr Index kBandHalf = 64;

/// The dominant diagonal d = j - i of the pair by seed vote, or none when its
/// best bin holds fewer than max(64, min(m, n) / 1024) hits (unrelated pairs).
std::optional<Index> dominant_diagonal(seq::SequenceView a, seq::SequenceView b) {
  const auto m = static_cast<Index>(a.size());
  const auto n = static_cast<Index>(b.size());
  const Index min_votes = std::max<Index>(64, std::min(m, n) / 1024);

  // Rolling 2-bit seed codes: `valid` counts the N-free bases ending at p.
  auto for_each_seed = [](seq::SequenceView s, auto&& visit) {
    std::uint32_t code = 0;
    Index valid = 0;
    for (std::size_t p = 0; p < s.size(); ++p) {
      code = (code << 2) | (s[p] & 3U);
      valid = s[p] == seq::kN ? 0 : valid + 1;
      if (valid >= kSeed) visit(static_cast<Index>(p) + 1 - kSeed, code);
    }
  };

  // s1's samples at positions 0, kSeed, 2 * kSeed, ... in an open-addressing
  // table (capacity a power of two, at least four times the samples, so most
  // probes of s0's seeds end on an empty slot at once). An entry
  // holds the seed and its sample number plus one (0 = empty slot).
  struct Entry {
    std::uint32_t code = 0;
    std::uint32_t sample = 0;
  };
  int shift = 32;
  while ((std::size_t{1} << (32 - shift)) < 4 * static_cast<std::size_t>(n / kSeed + 1)) --shift;
  const std::size_t mask = (std::size_t{1} << (32 - shift)) - 1;
  std::vector<Entry> table(mask + 1);
  auto slot_of = [&](std::uint32_t code) {
    return static_cast<std::size_t>((code * 0x9E3779B1U) >> shift) & mask;
  };
  for_each_seed(b, [&](Index j, std::uint32_t code) {
    if (j % kSeed != 0) return;
    int seen = 0;
    std::size_t k = slot_of(code);
    for (; table[k].sample != 0; k = (k + 1) & mask) seen += table[k].code == code ? 1 : 0;
    if (seen < kMaxRepeats) table[k] = Entry{code, static_cast<std::uint32_t>(j / kSeed + 1)};
  });

  // Every seed of s0 votes for the diagonal of each sample it matches.
  const std::size_t bins = static_cast<std::size_t>((m + n) / kBin) + 1;
  std::vector<std::uint32_t> votes(bins);
  std::vector<std::int64_t> sums(bins);  // Sum of the voting diagonals.
  for_each_seed(a, [&](Index i, std::uint32_t code) {
    for (std::size_t k = slot_of(code); table[k].sample != 0; k = (k + 1) & mask) {
      if (table[k].code != code) continue;
      const Index d = (table[k].sample - 1) * kSeed - i;
      const auto bin = static_cast<std::size_t>((d + m) / kBin);
      ++votes[bin];
      sums[bin] += d;
    }
  });
  const auto top = static_cast<std::size_t>(std::max_element(votes.begin(), votes.end()) -
                                            votes.begin());
  if (votes[top] < static_cast<std::uint32_t>(min_votes)) return std::nullopt;
  // The mean voting diagonal of the top bin and its neighbours centres the
  // band on the alignment even when it straddles a bin edge.
  std::int64_t count = 0, sum = 0;
  for (std::size_t k = top == 0 ? 0 : top - 1; k <= std::min(top + 1, bins - 1); ++k) {
    count += votes[k];
    sum += sums[k];
  }
  return static_cast<Index>(sum / count);
}

/// A special row's trailer: the merged best-so-far (score, i, j) covering
/// every cell up to the row, then, when pruning, the kPruneLag lagged bests —
/// the engine's resume state at the row: 3 + kPruneLag or 3 words, whatever
/// the grid.
std::vector<std::int64_t> resume_trailer(const dp::LocalBest& best,
                                         const engine::PruneState& prune) {
  std::vector<std::int64_t> trailer{best.score, best.i, best.j};
  trailer.insert(trailer.end(), prune.lagged.begin(), prune.lagged.end());
  return trailer;
}

/// Points `spec` at the highest special row in `area`, whose rows must be
/// exactly the flush rows k * `step` for k = 1..K; `hbus` holds the restored
/// row. Returns K.
Index resume_from_rows(const sra::SpecialRowsArea& area, Index step, engine::ProblemSpec& spec,
                       std::vector<engine::BusCell>& hbus) {
  const std::vector<std::size_t> rows = area.group_members(kRowsGroup);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    const Index expected = static_cast<Index>(k + 1) * step;
    CUDALIGN_CHECK(area.key(rows[k]).position == expected, "cannot resume: special row ",
                   expected, " is missing from the SRA store (the next row there is ",
                   area.key(rows[k]).position, ")");
  }
  if (rows.empty()) return 0;
  spec.start_row = static_cast<Index>(rows.size()) * step;
  std::vector<std::int64_t> trailer;
  hbus = area.get(rows.back(), &trailer);  // CRC-verified, trailer included.
  spec.initial_hbus = hbus;
  const auto words = static_cast<Index>(trailer.size());
  const Index needed = spec.block_pruning ? 3 + engine::kPruneLag : 3;
  CUDALIGN_CHECK(words == needed, "cannot resume: special row ", spec.start_row, " carries ",
                 words, " resume values; a", spec.block_pruning ? " pruned" : "n unpruned",
                 " run needs ", needed);
  spec.initial_best = dp::LocalBest{check::checked_cast<Score>(trailer[0]), trailer[1], trailer[2]};
  for (auto it = trailer.begin() + 3; it != trailer.end(); ++it) {
    spec.initial_prune.lagged.push_back(check::checked_cast<Score>(*it));
  }
  return static_cast<Index>(rows.size());
}

}  // namespace

Score prune_floor(seq::SequenceView a, seq::SequenceView b, const scoring::Scheme& scheme) {
  const std::optional<Index> diagonal = dominant_diagonal(a, b);
  if (!diagonal) return 0;
  const Index d = *diagonal;
  const auto m = static_cast<Index>(a.size());
  const auto n = static_cast<Index>(b.size());

  // One local-mode tile per strip, over the strip's band columns. Every bus
  // input the band did not compute — the left bus and each horizontal-bus
  // cell no strip has written yet — holds (H 0, gap -inf), the lower bound a
  // pruned tile publishes, so every value is the score of a real local
  // alignment and so is the best.
  const engine::Recurrence rec = engine::Recurrence::local(scheme);
  const engine::BusCell floor_cell{0, kNegInf};
  std::vector<engine::BusCell> hbus(static_cast<std::size_t>(n) + 1, floor_cell);
  const std::vector<engine::BusCell> left(static_cast<std::size_t>(kBandRows) + 1, floor_cell);
  std::vector<engine::BusCell> right(left.size());
  engine::TileScratch scratch;
  const engine::KernelVariant* forced = engine::kernel_override();
  Score best = 0;
  for (Index r0 = 0; r0 < m; r0 += kBandRows) {
    const Index r1 = std::min(m, r0 + kBandRows);
    const Index c0 = std::clamp<Index>(r0 + d - kBandHalf, 0, n);
    const Index c1 = std::clamp<Index>(r1 + d + kBandHalf, 0, n);
    if (c0 >= n) break;
    if (c1 == c0) continue;
    const auto rows = static_cast<std::size_t>(r1 - r0) + 1;
    engine::TileJob job;
    job.r0 = r0;
    job.r1 = r1;
    job.c0 = c0;
    job.c1 = c1;
    job.a = a;
    job.b = b;
    job.recurrence = &rec;
    job.hbus = std::span<engine::BusCell>(hbus).subspan(static_cast<std::size_t>(c0),
                                                        static_cast<std::size_t>(c1 - c0) + 1);
    job.vbus_in = std::span<const engine::BusCell>(left).first(rows);
    job.vbus_out = std::span<engine::BusCell>(right).first(rows);
    job.track_best = true;
    best = std::max(best, engine::run_tile(job, scratch, forced).best.score);
  }
  return best;
}

Stage1Result run_stage1(seq::SequenceView s0, seq::SequenceView s1, const Stage1Config& config) {
  config.scheme.validate();
  Timer timer;
  Stage1Result result;

  const Index m = static_cast<Index>(s0.size());
  const Index n = static_cast<Index>(s1.size());

  engine::ProblemSpec spec;
  spec.a = s0;
  spec.b = s1;
  spec.recurrence = engine::Recurrence::local(config.scheme);
  spec.grid = config.grid;
  spec.block_pruning = config.block_pruning;
  if (config.block_pruning) {
    // A pure function of the sequences and the scheme: a resumed run
    // recomputes the floor the interrupted run pruned with.
    obs::ScopedSpan span(config.telemetry, "prune floor");
    Timer floor_timer;
    spec.prune_floor = prune_floor(s0, s1, config.scheme);
    result.prune_floor = spec.prune_floor;
    result.prune_floor_seconds = floor_timer.seconds();
  }

  engine::Hooks hooks;
  hooks.bus_audit = config.bus_audit;
  hooks.telemetry = config.telemetry;
  if (config.progress) {
    hooks.on_progress = [&](Index done, Index total) {
      config.progress(static_cast<double>(done) / static_cast<double>(total));
    };
  }
  std::vector<engine::BusCell> restored_row;
  std::optional<sra::AsyncSraWriter> writer;
  if (config.rows_area != nullptr && m > 0 && n > 0) {
    result.flush_interval = sra::flush_interval_for_budget(
        m, n, config.grid.strip_rows(), config.rows_area->budget_bytes());
    if (config.resume) {
      result.rows_restored = resume_from_rows(
          *config.rows_area, result.flush_interval * config.grid.strip_rows(), spec, restored_row);
      result.resumed_from_row = spec.start_row;
    }
    hooks.special_row_interval = result.flush_interval;
    // Flush pipeline (DESIGN.md "Stage-1 I/O overlap"): the hook moves the
    // engine's row buffer into the writer's queue at strip retirement and
    // leaves a retired one in its place; the writer thread writes the row
    // with its resume trailer and then runs the ack, off the compute path.
    writer.emplace(*config.rows_area);
    hooks.on_special_row = [&](Index row, std::vector<engine::BusCell>& cells,
                               const dp::LocalBest& best, const engine::PruneState& prune) {
      ++result.special_rows_saved;
      cells = writer->submit(sra::RowKey{row, 0, n, kRowsGroup}, std::move(cells),
                             config.on_checkpoint, resume_trailer(best, prune));
    };
  }

  const std::int64_t flushed_before =
      config.rows_area != nullptr ? config.rows_area->total_bytes_written() : 0;
  const engine::RunResult run = engine::run_wavefront(spec, hooks, config.pool);
  if (writer) {
    // Rethrows a writer-thread failure (a failed put(), or the pipeline's
    // fault-injected throw) and hands ownership of the rows area and of the
    // ack's state back to this thread.
    writer->drain();
    const sra::AsyncWriterStats ws = writer->stats();
    result.stats.sra_rows_acked = ws.rows_acked;
    result.stats.sra_flush_queue_peak = ws.queue_peak;
    result.stats.sra_writer_busy_seconds = ws.writer_busy_seconds;
  }
  // A floor above the optimum can prune the optimum's tiles, and the best
  // then comes out below it: the one symptom every invalid floor shows.
  CUDALIGN_CHECK(run.best.score >= spec.prune_floor, "stage 1 best score ", run.best.score,
                 " is below the prune floor ", spec.prune_floor,
                 ": the floor was not a lower bound on the optimum");
  result.end_point = Crosspoint{run.best.i, run.best.j, run.best.score, dp::CellState::kH};
  result.stats.add_run(run.stats);
  if (config.rows_area != nullptr) {
    result.stats.sra_rows_flushed = result.special_rows_saved;
    result.stats.sra_bytes_flushed = config.rows_area->total_bytes_written() - flushed_before;
  }
  result.stats.crosspoints = 1;  // L_1 = {*, C_1}.
  result.stats.seconds = timer.seconds();
  return result;
}

}  // namespace cudalign::core
