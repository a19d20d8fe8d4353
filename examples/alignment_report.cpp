// Stage-6 visualization workflow: align a pair, persist the compact binary
// representation (Stage 5), then — as a separate consumer would — reload it,
// reconstruct the alignment, and emit a full report: composition table,
// textual rendering window, ASCII dot-plot and a TSV of path samples.
//
//   ./alignment_report [a.fasta b.fasta]
#include <cstdio>
#include <fstream>
#include <iostream>

#include "alignment/gaplist.hpp"
#include "alignment/render.hpp"
#include "common/format.hpp"
#include "common/io_util.hpp"
#include "core/pipeline.hpp"
#include "seq/fasta.hpp"
#include "seq/generator.hpp"

int main(int argc, char** argv) {
  using namespace cudalign;
  try {
    seq::Sequence s0, s1;
    if (argc == 3) {
      s0 = seq::read_single_fasta(argv[1]);
      s1 = seq::read_single_fasta(argv[2]);
    } else {
      const auto pair = seq::make_related_pair(6000, 6500, 77);
      s0 = pair.s0;
      s1 = pair.s1;
      std::printf("no FASTA inputs; using a synthetic 6Kx6.5K related pair\n");
    }

    // Producer: run the pipeline and keep only the binary representation.
    TempDir dir;
    const auto bin_path = dir.path() / "alignment.bin";
    {
      const auto result = core::align_pipeline(s0, s1, core::PipelineOptions{});
      if (result.empty) {
        std::printf("empty optimal alignment; nothing to report\n");
        return 0;
      }
      alignment::write_binary_file(bin_path, result.binary);
      std::printf("producer: score %d, binary %s\n", result.best_score,
                  format_bytes(static_cast<std::int64_t>(
                      alignment::encoded_size(result.binary))).c_str());
    }

    // Consumer: reconstruct everything from sequences + binary file alone.
    const auto binary = alignment::read_binary_file(bin_path);
    const auto report = core::run_stage6(s0.bases(), s1.bases(), binary, 256);

    const auto& c = report.composition;
    std::printf("\ncomposition (Table X style):\n");
    std::printf("  matches        %10lld  (%+lld)\n", (long long)c.matches,
                (long long)c.match_score);
    std::printf("  mismatches     %10lld  (%lld)\n", (long long)c.mismatches,
                (long long)c.mismatch_score);
    std::printf("  gap openings   %10lld  (%lld)\n", (long long)c.gap_openings,
                (long long)c.gap_open_score);
    std::printf("  gap extensions %10lld  (%lld)\n", (long long)c.gap_extensions,
                (long long)c.gap_ext_score);
    std::printf("  total score    %10lld ; identity %.2f%%\n", (long long)c.total_score(),
                c.identity() * 100);

    std::printf("\ndot-plot:\n%s", alignment::ascii_dotplot(report.alignment, s0.size(),
                                                            s1.size(), 16, 48)
                                        .c_str());

    const auto tsv_path = dir.path() / "path.tsv";
    std::ofstream tsv(tsv_path);
    alignment::write_path_tsv(tsv, report.path);
    std::printf("\n%zu path samples written to %s\n", report.path.size(), tsv_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
