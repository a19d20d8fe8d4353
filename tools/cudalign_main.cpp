// cudalign — command-line front end to the CUDAlign 2.0 pipeline.
//
//   cudalign align A.fasta B.fasta [options]     run the 6-stage pipeline
//   cudalign view  ALN.bin A.fasta B.fasta ...   Stage-6 visualization
//   cudalign generate OUT.fasta [options]        synthetic chromosome data
//   cudalign score A.fasta B.fasta [options]     Stage 1 only (best score)
//   cudalign report-check RUN.json               validate a run report
#include <cstdio>
#include <fstream>
#include <iostream>

#include "alignment/gaplist.hpp"
#include "alignment/render.hpp"
#include "alignment/cigar.hpp"
#include "common/args.hpp"
#include "common/format.hpp"
#include "common/io_util.hpp"
#include "core/pipeline.hpp"
#include "core/strand.hpp"
#include "core/stages.hpp"
#include "engine/kernel_registry.hpp"
#include "obs/progress.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "seq/fasta.hpp"
#include "seq/generator.hpp"

namespace {

using namespace cudalign;

int usage() {
  std::fprintf(stderr, R"(usage:
  cudalign align A.fasta B.fasta [--out ALN.bin] [--sra BYTES] [--workdir DIR]
           [--max-partition N] [--match N] [--mismatch N] [--gap-first N]
           [--gap-ext N] [--no-stage3] [--stats] [--no-prune] [--both-strands]
           [--cigar FILE] [--kernel NAME] [--audit-bus] [--report FILE]
           [--progress] [--checkpoint-dir DIR] [--resume]
  cudalign score A.fasta B.fasta [--match N] [--mismatch N] [--gap-first N]
           [--gap-ext N] [--kernel NAME] [--audit-bus]

Stage 1 prunes by default: a tile whose best possible continuation cannot
beat the best score already seen (in its ancestor tiles, or 16 strips up) is
skipped. Before Stage 1, a banded pass around the pair's dominant diagonal
finds a real local alignment; its score seeds that bound (the prune floor;
0 when no diagonal dominates, as on unrelated pairs). Pruning is exact: the
score, end point and --out are byte-identical to --no-prune, which computes
all m*n cells (the paper's Stage 1) and no floor. --stats prints the pruned
cells, their share of m*n and the prune floor.

--kernel pins a tile-kernel variant (e.g. legacy, scalar-local+best,
scalar-global, v16-local+best, striped8-local+best, striped16-local+best,
striped32-local+best, striped32-global; equivalent to CUDALIGN_KERNEL) for
Stages 1-4; tiles outside the variant's envelope fall back to automatic
selection, and a tile whose scores overflow a pinned striped8/striped16
variant's lanes re-runs on wider lanes (counted as "narrow re-runs" by
--stats), so scores are unaffected. The striped kernels pick their SIMD
backend at runtime; CUDALIGN_SIMD=auto|generic|sse2|avx2|avx512
forces one (unknown or unsupported values fail fast with exit code 2).
The wavefront of Stages 1-4 runs each tile once its inputs are published,
with no barrier between external diagonals and a bounded window of strips in
flight; results are delivered as each strip retires, so output is
byte-identical for any thread count, including resume.
--audit-bus verifies every wavefront bus hand-off against the grid model's
happens-before relation (check/bus_audit.hpp) and fails the run on violation.
Stage-1 special rows are written by a dedicated SRA writer thread that
overlaps tile compute; the checkpoint cursor advances only after each row's
durable write.
  cudalign view ALN.bin A.fasta B.fasta [--text FILE] [--tsv FILE] [--plot]
  cudalign generate OUT.fasta --length N [--seed N] [--mutate-of FILE]
           [--substitution R] [--indel R]
  cudalign report-check RUN.json

--report writes a versioned machine-readable JSON run report (spans, per-stage
counters, SRA and bus traffic; schema in DESIGN.md "Observability");
--progress prints a live per-stage ETA line to stderr. report-check validates
a report's schema and internal consistency (exit 0 = well-formed).
--checkpoint-dir keeps durable crash-safe progress (special rows + a stage
manifest) under DIR; a killed run re-invoked with --resume continues from the
last checkpoint instead of recomputing (DESIGN.md "Checkpoint & resume").
Resume refuses mismatched sequences, scoring or grid options.

Byte sizes accept K/M/G suffixes (e.g. --sra 2G).
)");
  return 2;
}

scoring::Scheme scheme_from(const common::Args& args) {
  scoring::Scheme s = scoring::Scheme::paper_defaults();
  s.match = static_cast<Score>(args.num("match", s.match));
  s.mismatch = static_cast<Score>(args.num("mismatch", s.mismatch));
  s.gap_first = static_cast<Score>(args.num("gap-first", s.gap_first));
  s.gap_ext = static_cast<Score>(args.num("gap-ext", s.gap_ext));
  s.validate();
  return s;
}

int cmd_align(const common::Args& args) {
  args.check_known({"out", "sra", "workdir", "max-partition", "match", "mismatch", "gap-first",
                    "gap-ext", "no-stage3", "stats", "no-prune", "both-strands", "cigar",
                    "kernel", "audit-bus", "report", "progress", "checkpoint-dir", "resume"});
  if (args.positional().size() != 2) return usage();
  if (args.has("kernel")) engine::set_kernel_override(args.str("kernel"));
  const auto s0 = seq::read_single_fasta(args.positional()[0]);
  const auto s1 = seq::read_single_fasta(args.positional()[1]);
  std::printf("aligning %s (%s BP) x %s (%s BP)\n", s0.name().c_str(),
              format_count(s0.size()).c_str(), s1.name().c_str(),
              format_count(s1.size()).c_str());

  core::PipelineOptions options;
  options.scheme = scheme_from(args);
  options.sra_rows_budget = args.num("sra", 256 << 20);
  options.sra_cols_budget = options.sra_rows_budget;
  options.max_partition_size = args.num("max-partition", 16);
  options.save_special_columns = !args.has("no-stage3");
  options.block_pruning = !args.has("no-prune");
  if (args.has("workdir")) options.workdir = args.str("workdir");
  if (args.has("checkpoint-dir")) options.checkpoint_dir = args.str("checkpoint-dir");
  options.resume = args.has("resume");
  CUDALIGN_CHECK(!options.resume || !options.checkpoint_dir.empty(),
                 "--resume requires --checkpoint-dir");
  CUDALIGN_CHECK(options.checkpoint_dir.empty() || !args.has("both-strands"),
                 "--checkpoint-dir does not combine with --both-strands (the two strand "
                 "pipelines would fight over one checkpoint)");

  check::BusAuditor auditor;
  if (args.has("audit-bus")) options.bus_audit = &auditor;

  obs::Telemetry telemetry;
  if (args.has("report")) options.telemetry = &telemetry;
  obs::ProgressMeter progress;
  if (args.has("progress")) {
    options.progress = [&](int stage, double fraction) { progress.update(stage, fraction); };
  }

  core::PipelineResult result;
  seq::Sequence aligned_s1 = s1;
  if (args.has("both-strands")) {
    auto stranded = core::align_both_strands(s0, s1, options);
    std::printf("strand: %s (forward %d, reverse %d)\n",
                stranded.reverse_strand ? "reverse-complement" : "forward",
                stranded.forward_score, stranded.reverse_score);
    result = std::move(stranded.result);
    aligned_s1 = std::move(stranded.strand_s1);
  } else {
    result = core::align_pipeline(s0, s1, options);
  }
  if (args.has("progress")) progress.finish();
  if (args.has("report")) {
    telemetry.finish();
    obs::ReportContext ctx;
    ctx.s0_name = s0.name();
    ctx.s0_length = static_cast<Index>(s0.size());
    ctx.s1_name = aligned_s1.name();
    ctx.s1_length = static_cast<Index>(aligned_s1.size());
    ctx.options = &options;
    ctx.result = &result;
    ctx.telemetry = &telemetry;
    const obs::Json report = obs::build_run_report(ctx);
    obs::write_report_file(report, args.str("report"));
    std::printf("run report -> %s\n", args.str("report").c_str());
  }
  if (args.has("audit-bus")) {
    std::printf("%s\n", auditor.report().c_str());
    if (!auditor.ok()) return 3;
  }
  if (result.resume.resumed) {
    std::printf("resumed from checkpoint: stage %d, row %lld, %lld cells skipped\n",
                result.resume.resumed_stage,
                static_cast<long long>(result.resume.resumed_from_row),
                static_cast<long long>(result.resume.cells_skipped));
  }
  std::printf("best score %d at (%lld, %lld)\n", result.best_score,
              static_cast<long long>(result.end_point.i),
              static_cast<long long>(result.end_point.j));
  if (result.empty) {
    std::printf("optimal local alignment is empty\n");
    return 0;
  }
  std::printf("alignment: (%lld, %lld) .. (%lld, %lld), %lld columns\n",
              static_cast<long long>(result.alignment.i0),
              static_cast<long long>(result.alignment.j0),
              static_cast<long long>(result.alignment.i1),
              static_cast<long long>(result.alignment.j1),
              static_cast<long long>(result.alignment.length()));

  const std::string out = args.str("out", "alignment.bin");
  alignment::write_binary_file(out, result.binary);
  std::printf("binary alignment -> %s (%s)\n", out.c_str(),
              format_bytes(static_cast<std::int64_t>(alignment::encoded_size(result.binary)))
                  .c_str());

  if (args.has("cigar")) {
    std::ofstream cg(args.str("cigar"));
    CUDALIGN_CHECK(cg.good(), "cannot open --cigar output");
    cg << alignment::to_cigar_extended(result.alignment, s0.bases(), aligned_s1.bases())
       << "\n";
    std::printf("CIGAR -> %s\n", args.str("cigar").c_str());
  }
  if (args.has("stats")) {
    const auto& c = result.visualization->composition;
    std::printf("\n%-16s %12s %10s\n", "", "occurrences", "score");
    std::printf("%-16s %12lld %10lld\n", "matches", (long long)c.matches,
                (long long)c.match_score);
    std::printf("%-16s %12lld %10lld\n", "mismatches", (long long)c.mismatches,
                (long long)c.mismatch_score);
    std::printf("%-16s %12lld %10lld\n", "gap openings", (long long)c.gap_openings,
                (long long)c.gap_open_score);
    std::printf("%-16s %12lld %10lld\n", "gap extensions", (long long)c.gap_extensions,
                (long long)c.gap_ext_score);
    std::printf("identity %.2f%%\n", c.identity() * 100);
    std::printf("\n%-8s %10s %14s %12s\n", "stage", "time", "cells", "|L_k|");
    for (int k = 0; k < 6; ++k) {
      const auto& st = result.stages[static_cast<std::size_t>(k)];
      std::printf("%-8d %10s %14s %12lld\n", k + 1, format_seconds(st.seconds).c_str(),
                  format_sci(static_cast<double>(st.cells)).c_str(),
                  static_cast<long long>(st.crosspoints));
    }
    const auto pruned = static_cast<double>(result.stages[0].pruned_cells);
    const double matrix = static_cast<double>(s0.size()) * static_cast<double>(aligned_s1.size());
    std::printf("stage-1 pruned cells: %s (%.1f%% of m*n)\n", format_sci(pruned).c_str(),
                matrix > 0 ? 100.0 * pruned / matrix : 0.0);
    std::printf("stage-1 prune floor: %lld in %.1f ms\n",
                static_cast<long long>(result.prune_floor), result.prune_floor_seconds * 1e3);
    std::printf("\nkernel usage (tiles/cells):\n");
    for (int k = 0; k < 6; ++k) {
      const auto& st = result.stages[static_cast<std::size_t>(k)];
      const std::string usage = engine::kernel_usage_summary(st.kernels);
      if (usage.empty()) continue;
      std::printf("  stage %d: %s; narrow re-runs %lld/%lld\n", k + 1, usage.c_str(),
                  static_cast<long long>(st.narrow_rerun_tiles),
                  static_cast<long long>(st.narrow_rerun_cells));
    }
  }
  return 0;
}

int cmd_score(const common::Args& args) {
  args.check_known({"match", "mismatch", "gap-first", "gap-ext", "kernel", "audit-bus"});
  if (args.positional().size() != 2) return usage();
  if (args.has("kernel")) engine::set_kernel_override(args.str("kernel"));
  const auto s0 = seq::read_single_fasta(args.positional()[0]);
  const auto s1 = seq::read_single_fasta(args.positional()[1]);
  core::Stage1Config config;
  config.scheme = scheme_from(args);
  check::BusAuditor auditor;
  if (args.has("audit-bus")) config.bus_audit = &auditor;
  const auto st1 = core::run_stage1(s0.bases(), s1.bases(), config);
  if (args.has("audit-bus")) {
    std::printf("%s\n", auditor.report().c_str());
    if (!auditor.ok()) return 3;
  }
  std::printf("best score %d at (%lld, %lld); %s cells in %s (%.0f MCUPS)\n",
              st1.end_point.score, static_cast<long long>(st1.end_point.i),
              static_cast<long long>(st1.end_point.j),
              format_sci(static_cast<double>(st1.stats.cells)).c_str(),
              format_seconds(st1.stats.seconds).c_str(),
              static_cast<double>(st1.stats.cells) / st1.stats.seconds / 1e6);
  std::printf("kernels: %s\n", engine::kernel_usage_summary(st1.stats.kernels).c_str());
  std::printf("narrow re-runs (tiles/cells): %lld/%lld\n",
              static_cast<long long>(st1.stats.narrow_rerun_tiles),
              static_cast<long long>(st1.stats.narrow_rerun_cells));
  return 0;
}

int cmd_view(const common::Args& args) {
  args.check_known({"text", "tsv", "plot"});
  if (args.positional().size() != 3) return usage();
  const auto binary = alignment::read_binary_file(args.positional()[0]);
  const auto s0 = seq::read_single_fasta(args.positional()[1]);
  const auto s1 = seq::read_single_fasta(args.positional()[2]);
  const auto report = core::run_stage6(s0.bases(), s1.bases(), binary);
  std::printf("alignment (%lld, %lld) .. (%lld, %lld), score %lld, identity %.2f%%\n",
              static_cast<long long>(report.alignment.i0),
              static_cast<long long>(report.alignment.j0),
              static_cast<long long>(report.alignment.i1),
              static_cast<long long>(report.alignment.j1),
              static_cast<long long>(binary.score), report.composition.identity() * 100);
  if (args.has("text")) {
    std::ofstream out(args.str("text"));
    CUDALIGN_CHECK(out.good(), "cannot open --text output");
    alignment::render_text(out, report.alignment, s0.bases(), s1.bases());
    std::printf("textual rendering -> %s\n", args.str("text").c_str());
  }
  if (args.has("tsv")) {
    std::ofstream out(args.str("tsv"));
    CUDALIGN_CHECK(out.good(), "cannot open --tsv output");
    alignment::write_path_tsv(out, report.path);
    std::printf("path samples -> %s\n", args.str("tsv").c_str());
  }
  if (args.has("plot")) {
    std::printf("%s", alignment::ascii_dotplot(report.alignment, s0.size(), s1.size(), 20, 64)
                          .c_str());
  }
  return 0;
}

int cmd_report_check(const common::Args& args) {
  args.check_known({});
  if (args.positional().size() != 1) return usage();
  const std::string& path = args.positional()[0];
  const obs::Json report = obs::Json::parse(read_file(path));
  const std::vector<std::string> problems = obs::validate_run_report(report);
  if (problems.empty()) {
    std::printf("%s: well-formed %s v%d\n", path.c_str(), obs::kReportSchemaName,
                obs::kReportSchemaVersion);
    return 0;
  }
  for (const std::string& p : problems) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), p.c_str());
  }
  return 1;
}

int cmd_generate(const common::Args& args) {
  args.check_known({"length", "seed", "mutate-of", "substitution", "indel"});
  if (args.positional().size() != 1) return usage();
  const auto seed = static_cast<std::uint64_t>(args.num("seed", 42));
  seq::Sequence out;
  if (args.has("mutate-of")) {
    const auto ancestor = seq::read_single_fasta(args.str("mutate-of"));
    seq::MutationProfile profile = seq::MutationProfile::related();
    if (args.has("substitution")) profile.substitution_rate = std::stod(args.str("substitution"));
    if (args.has("indel")) profile.indel_rate = std::stod(args.str("indel"));
    out = seq::mutate(ancestor, profile, seed, ancestor.name() + "_mutant");
  } else {
    const Index length = args.num("length", 1000000);
    out = seq::random_dna(length, seed, "synthetic");
  }
  seq::write_fasta_file(args.positional()[0], {out});
  std::printf("wrote %s (%s BP)\n", args.positional()[0].c_str(),
              format_count(out.size()).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) return usage();
    const std::string command = argv[1];
    // The flags the commands read only through has(): they never take a value.
    const common::Args args(argc, argv, 2,
                            {"stats", "no-prune", "resume", "no-stage3", "both-strands",
                             "audit-bus", "progress", "plot"});
    if (command == "align") return cmd_align(args);
    if (command == "score") return cmd_score(args);
    if (command == "view") return cmd_view(args);
    if (command == "generate") return cmd_generate(args);
    if (command == "report-check") return cmd_report_check(args);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cudalign: %s\n", e.what());
    return 1;
  }
}
