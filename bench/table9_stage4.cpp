// Table IX — Stage 4 iterations on the chromosome pair: per-iteration
// H_max/W_max/crosspoints and the runtimes of classic MM (Time_1) vs
// orthogonal execution (Time_2). Also the balanced-splitting ablation
// (Figure 10) as an extra pair of columns.
#include "common/io_util.hpp"
#include "bench_util.hpp"
#include "core/stages.hpp"
#include "sra/sra.hpp"

int main() {
  using namespace cudalign;
  using namespace cudalign::bench;

  print_header("Table IX", "Stage 4 iterations: classic MM vs orthogonal execution");
  const auto e = chromosome_pair();
  const auto pair = make_pair(e);
  const auto scheme = scoring::Scheme::paper_defaults();

  // Feed Stage 4 with the raw Stage-2 chain under a modest SRA (large
  // partitions -> many iterations, like the paper's run with max size 16).
  TempDir dir;
  sra::SpecialRowsArea rows(dir.path(), 8 * 8 * (e.n1 + 1));
  core::Stage1Config c1;
  c1.scheme = scheme;
  c1.grid = bench_grid_stage1();
  c1.rows_area = &rows;
  const auto st1 = core::run_stage1(pair.s0.bases(), pair.s1.bases(), c1);
  core::Stage2Config c2;
  c2.scheme = scheme;
  c2.grid = bench_grid_stage23();
  c2.rows_area = &rows;
  const auto st2 = core::run_stage2(pair.s0.bases(), pair.s1.bases(), st1.end_point, c2);

  core::Stage4Config base;
  base.scheme = scheme;
  base.max_partition_size = 16;
  base.block_pruning = false;  // The paper's Time_1 and Time_2 compute every cell.

  auto run = [&](bool orthogonal, bool balanced) {
    core::Stage4Config c = base;
    c.orthogonal = orthogonal;
    c.balanced_splitting = balanced;
    return core::run_stage4(pair.s0.bases(), pair.s1.bases(), st2.crosspoints, c);
  };

  const auto classic = run(false, true);
  const auto ortho = run(true, true);

  std::printf("%-4s %8s %8s %12s | %10s %10s | %12s %12s\n", "It.", "Hmax", "Wmax",
              "crosspoints", "Time_1(s)", "Time_2(s)", "Cells_1", "Cells_2");
  const std::size_t iters = std::max(classic.iterations.size(), ortho.iterations.size());
  for (std::size_t k = 0; k < iters; ++k) {
    auto get = [&](const std::vector<core::Stage4Iteration>& v,
                   auto field) -> std::string {
      if (k >= v.size()) return "-";
      return field(v[k]);
    };
    using It = const core::Stage4Iteration&;
    std::printf("%-4zu %8s %8s %12s | %10s %10s | %12s %12s\n", k + 1,
                get(ortho.iterations, [](It i) { return std::to_string(i.h_max); }).c_str(),
                get(ortho.iterations, [](It i) { return std::to_string(i.w_max); }).c_str(),
                get(ortho.iterations, [](It i) { return std::to_string(i.crosspoints); }).c_str(),
                get(classic.iterations, [](It i) { return format_seconds(i.seconds); }).c_str(),
                get(ortho.iterations, [](It i) { return format_seconds(i.seconds); }).c_str(),
                get(classic.iterations,
                    [](It i) { return format_sci(static_cast<double>(i.cells)); })
                    .c_str(),
                get(ortho.iterations,
                    [](It i) { return format_sci(static_cast<double>(i.cells)); })
                    .c_str());
  }
  std::printf("%-4s %8s %8s %12lld | %10s %10s | %12s %12s\n", "Tot", "-", "-",
              static_cast<long long>(ortho.crosspoints.size()),
              format_seconds(classic.stats.seconds).c_str(),
              format_seconds(ortho.stats.seconds).c_str(),
              format_sci(static_cast<double>(classic.stats.cells)).c_str(),
              format_sci(static_cast<double>(ortho.stats.cells)).c_str());
  std::printf("\nOrthogonal saving: %.1f%% of cells (paper's expected average: 25%%)\n",
              (1.0 - static_cast<double>(ortho.stats.cells) /
                         static_cast<double>(classic.stats.cells)) *
                  100.0);

  // Balanced-splitting ablation (Figure 10): iteration counts.
  const auto unbalanced = run(true, false);
  std::printf("\nBalanced splitting ablation (Figure 10): %zu iterations balanced vs %zu\n"
              "iterations middle-row-only; cells %s vs %s.\n",
              ortho.iterations.size(), unbalanced.iterations.size(),
              format_sci(static_cast<double>(ortho.stats.cells)).c_str(),
              format_sci(static_cast<double>(unbalanced.stats.cells)).c_str());
  return 0;
}
