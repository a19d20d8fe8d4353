// End-to-end pipeline sweep: runs the six-stage pipeline over the Table II
// stand-in roster with telemetry attached and writes one machine-readable
// trajectory (BENCH_pipeline.json; override with CUDALIGN_BENCH_JSON or
// --out). The shape to watch: Stage 1 dominates, GCUPS stays near-flat as
// sizes grow, and bus/SRA traffic scales with the matrix area, not with the
// alignment length.
//
// Each entry runs under both Stage-1 executors (lockstep and dataflow), and
// pruning-heavy entries (the unrelated regime, where most tiles prune) also
// run with block pruning on. The per-entry "stage-1 dataflow speedup" line is
// the headline: pruning makes tile costs wildly uneven, which is exactly the
// load the per-diagonal barrier pays for and the dataflow executor does not.
//
// Kernel-pinned rows ([v16] / [striped8] / [striped16]) rerun the plain
// lockstep configuration with the process-wide kernel override set, so the
// Stage-1 throughput of the auto-vectorized anti-diagonal sweep and the
// hand-striped Farrar kernels can be compared on identical work. The pin is
// best-effort by design: tiles outside a kernel's exactness envelope fall
// back to automatic selection (scores never change, only speed).
//
//   --fast    smallest roster entry only (the CI smoke configuration)
//   --out F   JSON output path ("off" disables the artifact)
#include <string_view>

#include "bench_util.hpp"
#include "common/args.hpp"
#include "engine/kernel_registry.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"

namespace {

struct Variant {
  const char* suffix;  ///< Appended to both the table and the JSON label.
  cudalign::engine::ExecutorKind executor;
  bool prune;
  const char* kernel = "";  ///< Process-wide kernel pin for this row ("" = auto).
};

std::vector<Variant> variants_for(const cudalign::bench::RosterEntry& e) {
  using cudalign::engine::ExecutorKind;
  std::vector<Variant> v = {
      {"", ExecutorKind::kLockstep, false},
      {" [dataflow]", ExecutorKind::kDataflow, false},
      {" [v16]", ExecutorKind::kLockstep, false, "v16-local+best"},
      {" [striped8]", ExecutorKind::kLockstep, false, "striped8-local+best"},
      {" [striped16]", ExecutorKind::kLockstep, false, "striped16-local+best"},
  };
  if (!e.related) {
    // Short local optimum: block pruning skips most of the matrix and tile
    // costs become bimodal — the pruning-heavy configuration.
    v.push_back({" [pruned]", ExecutorKind::kLockstep, true});
    v.push_back({" [pruned, dataflow]", ExecutorKind::kDataflow, true});
  }
  return v;
}

/// JSON label: the sizes actually run plus the paper pair's name, e.g.
/// "2Kx2K (herpesvirus, short local hit)" for the scaled herpesvirus entry.
std::string json_label(const cudalign::bench::RosterEntry& e) {
  const std::string_view paper = e.paper_label;
  return cudalign::bench::label(e) + std::string(paper.substr(paper.find(" (")));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cudalign;
  using namespace cudalign::bench;

  const common::Args args(argc, argv, 1);
  args.check_known({"fast", "out"});
  const bool fast = args.has("fast");
  const char* json_env = std::getenv("CUDALIGN_BENCH_JSON");
  const std::string json_path =
      args.has("out") ? args.str("out") : (json_env != nullptr ? json_env : "BENCH_pipeline.json");

  print_header("Pipeline sweep", "six-stage runtime, throughput and traffic per pair");
  std::printf("%-32s | %8s %8s | %7s | %10s %10s | %8s\n", "Comparison", "total", "stage 1",
              "GCUPS", "bus MB", "SRA MB", "score");

  obs::Json runs = obs::Json::array();
  std::vector<RosterEntry> entries = roster(/*include_large=*/!fast);
  if (fast) entries.resize(1);

  for (const auto& e : entries) {
    const auto pair = make_pair(e);
    // Stage-1 seconds per variant, for the lockstep-vs-dataflow speedup line.
    double s1_plain[2] = {0, 0};   // [0] lockstep, [1] dataflow.
    double s1_pruned[2] = {0, 0};
    bool have_pruned = false;
    double s1_v16 = 0, s1_striped8 = 0, s1_striped16 = 0;  // For the striped-vs-v16 speedup line.

    for (const Variant& v : variants_for(e)) {
      core::PipelineOptions options = bench_options();
      options.executor = v.executor;
      options.block_pruning = v.prune;
      obs::Telemetry telemetry;
      options.telemetry = &telemetry;
      engine::set_kernel_override(v.kernel);
      const auto result = core::align_pipeline(pair.s0, pair.s1, options);
      engine::set_kernel_override("");
      telemetry.finish();

      std::int64_t bus_bytes = 0, sra_bytes = 0;
      for (const auto& st : result.stages) {
        bus_bytes += st.hbus_bytes + st.vbus_bytes;
        sra_bytes += st.sra_bytes_flushed + st.sra_bytes_read;
      }
      const double total = result.total_seconds();
      // The paper's throughput metric (§V-A): matrix cells m * n over the
      // whole run, not the cells every stage recomputed.
      const WideScore matrix_cells =
          static_cast<WideScore>(pair.s0.size()) * static_cast<WideScore>(pair.s1.size());
      const double stage1 = result.stages[0].seconds;
      const int df = options.executor == engine::ExecutorKind::kDataflow ? 1 : 0;
      if (v.kernel[0] == '\0') (v.prune ? s1_pruned : s1_plain)[df] = stage1;
      have_pruned = have_pruned || v.prune;
      if (std::string_view(v.kernel) == "v16-local+best") s1_v16 = stage1;
      if (std::string_view(v.kernel) == "striped8-local+best") s1_striped8 = stage1;
      if (std::string_view(v.kernel) == "striped16-local+best") s1_striped16 = stage1;
      std::printf("%-32s | %8s %8s | %7.3f | %10.1f %10.1f | %8d\n",
                  (label(e) + v.suffix).c_str(), format_seconds(total).c_str(),
                  format_seconds(stage1).c_str(), mcups(matrix_cells, total) / 1e3,
                  static_cast<double>(bus_bytes) / 1e6, static_cast<double>(sra_bytes) / 1e6,
                  result.best_score);

      obs::ReportContext ctx;
      ctx.s0_name = pair.s0.name();
      ctx.s0_length = static_cast<Index>(pair.s0.size());
      ctx.s1_name = pair.s1.name();
      ctx.s1_length = static_cast<Index>(pair.s1.size());
      ctx.options = &options;
      ctx.result = &result;
      ctx.telemetry = &telemetry;
      runs.push(obs::Json::object()
                    .set("label", json_label(e) + v.suffix)
                    .set("report", obs::build_run_report(ctx)));
    }

    if (s1_plain[1] > 0) {
      std::printf("  stage-1 dataflow speedup: %.2fx plain", s1_plain[0] / s1_plain[1]);
      if (have_pruned && s1_pruned[1] > 0) {
        std::printf(", %.2fx pruned", s1_pruned[0] / s1_pruned[1]);
      }
      std::printf("\n");
    }
    if (s1_v16 > 0 && s1_striped16 > 0) {
      std::printf("  stage-1 striped16 vs v16 speedup: %.2fx", s1_v16 / s1_striped16);
      if (s1_striped8 > 0) std::printf(", striped8 %.2fx", s1_v16 / s1_striped8);
      std::printf("\n");
    }
  }

  std::printf("\nShape check: Stage 1 dominates the total and GCUPS stays near-flat\n"
              "across sizes (the paper's near-constant MCUPS plateau, Figure 11);\n"
              "the dataflow executor pulls ahead where pruning skews tile costs.\n");

  if (json_path != "off") {
    obs::Json doc = obs::Json::object()
                        .set("schema", "cudalign-bench-pipeline")
                        .set("schema_version", 1)
                        .set("fast", fast)
                        .set("scale", bench_scale())
                        .set("runs", std::move(runs));
    obs::write_report_file(doc, json_path);
    std::printf("trajectory -> %s\n", json_path.c_str());
  }
  return 0;
}
