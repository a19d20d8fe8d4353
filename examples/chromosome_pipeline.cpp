// Chromosome-scale pipeline walkthrough (the paper's §V-B scenario, scaled):
// generates a related pair standing in for human chr21 x chimp chr22, runs
// the six stages with an explicit working directory and SRA budget, and
// reports per-stage times, crosspoint counts and SRA usage — everything a
// user tuning |SRA| for a real chromosome run needs to see.
//
//   ./chromosome_pipeline [size_bp] [sra_rows]
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "alignment/gaplist.hpp"
#include "common/format.hpp"
#include "core/pipeline.hpp"
#include "seq/generator.hpp"

int main(int argc, char** argv) {
  using namespace cudalign;
  try {
    const Index size = argc > 1 ? std::atoll(argv[1]) : 40000;
    const Index sra_rows = argc > 2 ? std::atoll(argv[2]) : 24;
    std::printf("synthesizing a related pair of ~%s BP (human/chimp stand-in)...\n",
                format_count(size).c_str());
    const auto pair = seq::make_related_pair(size * 7 / 10, size, 2024);

    core::PipelineOptions options;
    options.sra_rows_budget = sra_rows * 8 * (pair.s1.size() + 1);
    options.sra_cols_budget = options.sra_rows_budget;
    options.grid_stage1 = engine::GridSpec{32, 16, 4, 32};
    options.grid_stage23 = engine::GridSpec{8, 32, 4, 64};
    options.workdir = std::filesystem::temp_directory_path() / "cudalign-chromosome-demo";
    const auto result = core::align_pipeline(pair.s0, pair.s1, options);

    std::printf("\nbest score %d; alignment length %lld; flush interval %lld strips\n",
                result.best_score, static_cast<long long>(result.alignment.length()),
                static_cast<long long>(result.flush_interval));
    std::printf("special rows saved %lld; special columns saved %lld; SRA peak %s\n",
                static_cast<long long>(result.special_rows_saved),
                static_cast<long long>(result.special_cols_saved),
                format_bytes(result.sra_peak_bytes).c_str());
    std::printf("\n%-8s %10s %14s %12s\n", "stage", "time", "cells", "crosspoints");
    for (int k = 0; k < 6; ++k) {
      std::printf("%-8d %10s %14s %12lld\n", k + 1,
                  format_seconds(result.stages[static_cast<std::size_t>(k)].seconds).c_str(),
                  format_sci(static_cast<double>(
                      result.stages[static_cast<std::size_t>(k)].cells)).c_str(),
                  static_cast<long long>(
                      result.stages[static_cast<std::size_t>(k)].crosspoints));
    }

    const auto out = std::filesystem::temp_directory_path() / "chromosome_alignment.bin";
    alignment::write_binary_file(out, result.binary);
    std::printf("\nStage-5 binary alignment written to %s (%s)\n", out.c_str(),
                format_bytes(static_cast<std::int64_t>(
                    alignment::encoded_size(result.binary))).c_str());
    std::filesystem::remove_all(options.workdir);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
