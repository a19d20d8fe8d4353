// Table VIII — execution statistics of the chromosome comparison across SRA
// sizes: B_k (after fit_to_width), Cells_k, |L_k|, the largest
// partition dimensions after Stage 3, and the engine memory ("VRAM").
#include "bench_util.hpp"

int main() {
  using namespace cudalign;
  using namespace cudalign::bench;

  print_header("Table VIII", "chromosome comparison: execution statistics vs SRA size");
  const auto e = chromosome_pair();
  const auto pair = make_pair(e);

  const std::int64_t row_bytes = 8 * (e.n1 + 1);
  const std::vector<Index> budgets{4, 16, 64};

  std::vector<core::PipelineResult> results;
  std::printf("%-14s", "SRA");
  for (const Index rows : budgets) {
    results.push_back(core::align_pipeline(pair.s0, pair.s1, bench_options(rows * row_bytes)));
    std::printf(" %14s", format_bytes(rows * row_bytes).c_str());
  }
  std::printf("\n");

  auto row = [&](const char* name, auto getter) {
    std::printf("%-14s", name);
    for (const auto& r : results) std::printf(" %14s", getter(r).c_str());
    std::printf("\n");
  };
  using R = const core::PipelineResult&;
  row("B_1", [](R r) { return std::to_string(r.stages[0].blocks_used); });
  row("B_2", [](R r) { return std::to_string(r.stages[1].blocks_used); });
  row("B_3", [](R r) { return std::to_string(r.stages[2].blocks_used); });
  row("Cells_1", [](R r) { return format_sci(static_cast<double>(r.stages[0].cells)); });
  row("Cells_2", [](R r) { return format_sci(static_cast<double>(r.stages[1].cells)); });
  row("Cells_3", [](R r) { return format_sci(static_cast<double>(r.stages[2].cells)); });
  row("|L_1|", [](R r) { return std::to_string(r.crosspoint_counts[0]); });
  row("|L_2|", [](R r) { return std::to_string(r.crosspoint_counts[1]); });
  row("|L_3|", [](R r) { return std::to_string(r.crosspoint_counts[2]); });
  row("H_max", [](R r) { return std::to_string(r.h_max_after_stage3); });
  row("W_max", [](R r) { return std::to_string(r.w_max_after_stage3); });
  row("RAM_1", [](R r) { return format_bytes(static_cast<std::int64_t>(r.stages[0].ram_bytes)); });
  row("RAM_2", [](R r) { return format_bytes(static_cast<std::int64_t>(r.stages[1].ram_bytes)); });
  row("RAM_3", [](R r) { return format_bytes(static_cast<std::int64_t>(r.stages[2].ram_bytes)); });
  row("SRA peak", [](R r) { return format_bytes(r.sra_peak_bytes); });

  std::printf("\nShape check vs paper Table VIII: Cells_1 is budget-independent; Cells_2\n"
              "and Cells_3 shrink as the SRA grows; |L_2|/|L_3| and the partition\n"
              "extrema (H_max, W_max) shrink; engine memory is flat and linear.\n");
  return 0;
}
