// Ablation — Stage-1 block pruning (the optimization the CUDAlign lineage
// published after this paper; DESIGN.md "extensions"). Exactness is enforced
// in-bench; the interesting numbers are the pruned-cell fraction and the
// speedup, which depend on how early the best score grows: large for related
// pairs (long alignments found early), near-zero for unrelated pairs.
#include "bench_util.hpp"
#include "core/stages.hpp"

int main() {
  using namespace cudalign;
  using namespace cudalign::bench;

  print_header("Ablation", "Stage-1 block pruning (post-paper CUDAlign optimization)");
  std::printf("%-12s %-10s | %8s %8s | %8s | %7s\n", "Comparison", "regime", "plain(s)",
              "pruned(s)", "pruned%", "speedup");

  for (const auto& e : roster()) {
    const auto pair = make_pair(e);
    core::Stage1Config plain;
    plain.scheme = scoring::Scheme::paper_defaults();
    plain.grid = bench_grid_stage1();
    plain.block_pruning = false;
    const auto r0 = core::run_stage1(pair.s0.bases(), pair.s1.bases(), plain);

    core::Stage1Config pruning = plain;
    pruning.block_pruning = true;
    const auto r1 = core::run_stage1(pair.s0.bases(), pair.s1.bases(), pruning);

    if (r0.end_point.score != r1.end_point.score || r0.end_point.i != r1.end_point.i ||
        r0.end_point.j != r1.end_point.j) {
      std::printf("!! pruning changed the result on %s\n", label(e).c_str());
      return 1;
    }
    const double pruned_pct = 100.0 * static_cast<double>(r1.stats.pruned_cells) /
                              static_cast<double>(r1.stats.cells + r1.stats.pruned_cells);
    std::printf("%-12s %-10s | %8s %8s | %7.1f%% | %6.2fx\n", label(e).c_str(),
                e.related ? "related" : "unrelated", format_seconds(r0.stats.seconds).c_str(),
                format_seconds(r1.stats.seconds).c_str(), pruned_pct,
                r0.stats.seconds / r1.stats.seconds);
  }
  std::printf("\nShape check: related pairs prune about half the matrix (a tile is\n"
              "skipped when it cannot beat the best seen in its ancestor tiles or\n"
              "anywhere 16 strips up, so off-path blocks on both sides of the\n"
              "diagonal go); unrelated pairs prune nothing. Results are\n"
              "bit-identical with pruning on or off.\n");
  return 0;
}
