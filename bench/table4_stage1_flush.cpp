// Table IV — Stage 1 runtime and MCUPS with and without flushing special rows
// to disk; the paper's claim: the flush overhead is ~1% for long sequences.
#include "common/io_util.hpp"
#include "bench_util.hpp"
#include "core/stages.hpp"
#include "sra/sra.hpp"

int main() {
  using namespace cudalign;
  using namespace cudalign::bench;

  print_header("Table IV", "Stage 1 runtimes (s) and MCUPS, no-flush vs flush");
  std::printf("%-12s | %8s %8s | %-9s %8s %8s | %9s\n", "Comparison", "Time", "MCUPS", "SRA",
              "Time", "MCUPS", "Overhead");

  // Warm up caches/branch predictors so the first measured row is not biased.
  {
    const auto warm = seq::make_related_pair(2000, 2000, 1);
    core::Stage1Config c;
    c.scheme = scoring::Scheme::paper_defaults();
    c.grid = bench_grid_stage1();
    (void)core::run_stage1(warm.s0.bases(), warm.s1.bases(), c);
  }

  for (const auto& e : roster()) {
    const auto pair = make_pair(e);
    const auto scheme = scoring::Scheme::paper_defaults();

    core::Stage1Config no_flush;
    no_flush.scheme = scheme;
    no_flush.grid = bench_grid_stage1();
    no_flush.block_pruning = false;  // Table IV's Stage 1 computes all m*n cells.
    const auto r0 = core::run_stage1(pair.s0.bases(), pair.s1.bases(), no_flush);

    // SRA budget proportional to the pair, mirroring the paper's 5M..50G
    // per-pair choices: ~32 special rows.
    const std::int64_t budget = 32 * 8 * (e.n1 + 1);
    TempDir dir;
    sra::SpecialRowsArea rows(dir.path(), budget);
    core::Stage1Config flush = no_flush;
    flush.rows_area = &rows;
    const auto r1 = core::run_stage1(pair.s0.bases(), pair.s1.bases(), flush);

    const double overhead = (r1.stats.seconds - r0.stats.seconds) / r0.stats.seconds * 100.0;
    std::printf("%-12s | %8s %8.0f | %-9s %8s %8.0f | %8.1f%%\n", label(e).c_str(),
                format_seconds(r0.stats.seconds).c_str(), mcups(r0.stats.cells, r0.stats.seconds),
                format_bytes(budget).c_str(), format_seconds(r1.stats.seconds).c_str(),
                mcups(r1.stats.cells, r1.stats.seconds), overhead);
  }
  std::printf("\nShape check: flushing costs a few percent at most and the relative\n"
              "overhead shrinks as the comparison grows (paper: ~1%% for long pairs).\n");
  return 0;
}
