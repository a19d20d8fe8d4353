// Shared declarations of the end-to-end benchmark (bench_e2e): workloads,
// the measured result of one run, and the small statistics it reports.
// README.md next to this file documents the workloads and every metric.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/pipeline.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "seq/sequence.hpp"

namespace cudalign::e2e {

// ---------------------------------------------------------------------------
// Workloads (workload.cpp)
// ---------------------------------------------------------------------------

/// One workload: how its sequence pair is generated from a seed and how the
/// pipeline is configured for it. Everything else is the program's default.
struct Workload {
  std::string_view name;
  bool related = true;           ///< make_related_pair, else make_unrelated_pair.
  Index n0 = 0, n1 = 0;
  Index island = 0;              ///< Planted common segment (unrelated pairs).
  std::int64_t sra_budget = 0;   ///< Rows and columns budget, like the CLI's --sra.
  bool durable = false;          ///< checkpoint_dir set, so the SRA is kDurable.
  Score anchor_score = 0;        ///< Best score at kDefaultSeed (full size only).
};

/// The seed whose best scores are anchored in the workload table.
inline constexpr std::uint64_t kDefaultSeed = 1;

[[nodiscard]] std::span<const Workload> workloads();
/// Throws cudalign::Error naming the valid workloads on an unknown name.
[[nodiscard]] const Workload& find_workload(std::string_view name);
/// The same workload at ~5K x 5K (the smoke test's size), anchor dropped.
[[nodiscard]] Workload smoke_sized(const Workload& w);

/// The program's inputs and thread pool, as a user's run would set them up.
struct Setup {
  seq::Sequence s0, s1;
  std::unique_ptr<ThreadPool> pool;  ///< nproc - 1 workers + the caller.
  std::vector<double> total_s;       ///< Per repetition: both reads + pool start.
  std::vector<double> fasta_s;       ///< Per repetition: both FASTA reads.
  std::vector<double> pool_s;        ///< Per repetition: ThreadPool construction.
};

/// The workload's two FASTA files.
using Fasta = std::pair<std::filesystem::path, std::filesystem::path>;

/// Generates the workload's pair from `seed` and writes it as two FASTA
/// files under `dir`; the program only ever sees these files.
[[nodiscard]] Fasta write_inputs(const Workload& w, std::uint64_t seed,
                                 const std::filesystem::path& dir);

/// Sets up `reps` times — both FASTA reads, then the pool start — adding
/// each repetition's times to `setup`. The first set-up of an empty `setup`
/// is kept for the pipeline calls; later ones are discarded. Runs call this
/// between pipeline calls too, so the samples span the whole run.
void repeat_setup(const Fasta& fasta, int reps, Setup& setup);

/// The pipeline options of the workload: program defaults, the CLI's SRA
/// budget, the pool, and `checkpoint_dir` when the workload is durable.
[[nodiscard]] core::PipelineOptions pipeline_options(const Workload& w, ThreadPool* pool,
                                                     const std::filesystem::path& checkpoint_dir);

/// One timed align_pipeline call.
struct TimedCall {
  double seconds = 0;
  core::PipelineResult result;
};

/// Calls align_pipeline with the workload's options, passing `telemetry` (may
/// be null) so the pipeline records its own stage spans. A durable workload
/// gets a fresh checkpoint directory under `workdir`, removed after the call
/// (outside the timing).
[[nodiscard]] TimedCall run_pipeline(const Workload& w, const Setup& setup,
                                     const std::filesystem::path& workdir,
                                     obs::Telemetry* telemetry = nullptr);

/// Checks one pipeline result. Returns "" when it passes, else the reason:
/// the alignment fails alignment::validate, its score is not the Stage-1
/// best, its binary form differs from `reference`, or the best score is not
/// `expect_score`.
[[nodiscard]] std::string check_result(const core::PipelineResult& result, const Setup& setup,
                                       const alignment::BinaryAlignment* reference,
                                       std::optional<Score> expect_score);

// ---------------------------------------------------------------------------
// Results and statistics
// ---------------------------------------------------------------------------

struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};

/// Quartiles as Python's statistics.quantiles(values, n=4) computes them
/// (the "exclusive" method); one value gives q1 = median = q3 = that value.
[[nodiscard]] Quartiles quartiles(std::vector<double> values);

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  std::vector<double> samples;  ///< The values `value` is the median of.
};

/// What one run measured and whether every output passed its checks.
struct RunOutcome {
  int attempted = 0;  ///< Pipeline calls made.
  int failed = 0;     ///< Runs that threw or failed a check.
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  obs::Json detail = obs::Json::object();  ///< Spans and extra figures (--json-out).

  void add(std::string name, std::string unit, double value, std::vector<double> samples = {});
  /// Adds the median of `samples`.
  void add_median(std::string name, std::string unit, std::vector<double> samples);
  void fail(std::string error);
  [[nodiscard]] const Metric* find(std::string_view name) const;
  [[nodiscard]] bool correct() const { return failed == 0 && errors.empty(); }
};

/// Options shared by the untraced and the traced run of one workload.
struct RunConfig {
  const Workload* workload = nullptr;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;            ///< Measurement time.
  std::filesystem::path workdir;  ///< Inputs, SRA files and checkpoints.
  std::optional<Score> expect_score;
  int setup_reps = 8;             ///< Set-ups before the first and after every call.
  int min_reps = 3;               ///< Timed pipeline calls, at least.
};

/// Untraced align_pipeline calls of one run.
struct CallSeries {
  std::vector<double> seconds;  ///< The timed calls (the warm-up is not timed).
  std::optional<alignment::BinaryAlignment> reference;  ///< The warm-up's result.
  std::int64_t sra_peak_bytes = 0;
};

/// One warm-up call, then timed calls until `config.seconds` have passed and
/// at least `config.min_reps` were timed (or `config.min_reps` failed). Every
/// call is checked against the warm-up's binary alignment and counted in
/// `out`; `config.setup_reps` set-ups follow every call.
[[nodiscard]] CallSeries run_calls(const RunConfig& config, const Fasta& fasta, Setup& setup,
                                   RunOutcome& out);

/// Untraced run: setup, one warm-up call, then timed calls for
/// `config.seconds`; every call is checked. Gives the end-to-end metrics.
[[nodiscard]] RunOutcome run_untraced(const RunConfig& config);

/// Traced run (traced.cpp): setup, untraced reference calls for half the
/// time, then one align_pipeline call recording its stage spans, then the
/// layer probes. Gives the per-layer metrics and the span tree.
[[nodiscard]] RunOutcome run_traced(const RunConfig& config);

/// `bench_e2e --compare A.json B.json` (compare.cpp): one row per workload and
/// end-to-end metric; returns the process exit code (0 = every row ok).
[[nodiscard]] int compare_sets(const std::filesystem::path& a, const std::filesystem::path& b);

}  // namespace cudalign::e2e
