// Figure 11 — wall-clock time vs DP matrix size (cells) in log scale: the
// paper shows near-constant GCUPS (~23 GCUPS on the GTX 285) once sequences
// are a few MBP. Here: near-constant MCUPS once the matrix dwarfs the
// per-strip overheads. Emits the (cells, seconds, MCUPS) series ready for
// log-log plotting.
#include <cmath>

#include "bench_util.hpp"
#include "core/stages.hpp"

int main() {
  using namespace cudalign;
  using namespace cudalign::bench;

  print_header("Figure 11", "runtimes vs matrix size; sustained MCUPS plateau");
  std::printf("%-12s %14s %10s %10s\n", "Comparison", "Cells", "Time(s)", "MCUPS");

  const double s = bench_scale();
  double mcups_small = 0, mcups_large = 0;
  for (const double kbp : {250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16000.0, 32000.0}) {
    const auto n = static_cast<Index>(kbp * s);
    const auto pair = seq::make_related_pair(n, n, 7000 + static_cast<std::uint64_t>(kbp));
    core::Stage1Config c1;  // Stage 1 dominates; it is the paper's series too.
    c1.scheme = scoring::Scheme::paper_defaults();
    c1.grid = bench_grid_stage1();
    c1.block_pruning = false;  // The paper's MCUPS count all m*n cells.
    const auto st1 = core::run_stage1(pair.s0.bases(), pair.s1.bases(), c1);
    const double m = mcups(st1.stats.cells, st1.stats.seconds);
    if (mcups_small == 0) mcups_small = m;
    mcups_large = m;
    std::printf("%-12s %14s %10s %10.0f\n", seq::size_label(n, n).c_str(),
                format_sci(static_cast<double>(st1.stats.cells)).c_str(),
                format_seconds(st1.stats.seconds).c_str(), m);
  }
  std::printf("\nShape check: MCUPS grows with size then plateaus (paper: ~23000 MCUPS\n"
              "constant above 3 MBP). Plateau/entry ratio here: %.2fx.\n",
              mcups_large / mcups_small);
  return 0;
}
