// Workload table, program set-up, checked pipeline calls and the untraced run.
#include <sys/resource.h>

#include <algorithm>
#include <thread>

#include "alignment/alignment.hpp"
#include "common/timer.hpp"
#include "e2e.hpp"
#include "seq/fasta.hpp"
#include "seq/generator.hpp"

namespace cudalign::e2e {

namespace {

// Why each workload exists, and which layer it isolates, is in README.md and
// BENCHMARK.json. Sizes keep one pipeline call at 2-5 s on a 4-core host, so
// a run of ten seconds still makes several timed calls.
constexpr std::int64_t kCliSraBudget = std::int64_t{256} << 20;  // cudalign align's --sra default.

const Workload kWorkloads[] = {
    {"related", true, 100000, 100000, 0, kCliSraBudget, false, 93044},
    {"related-sparse", true, 100000, 100000, 0, std::int64_t{10} << 20, false, 93044},
    {"unrelated", false, 150000, 110000, 96, kCliSraBudget, false, 96},
    {"related-durable", true, 100000, 100000, 0, kCliSraBudget, true, 93044},
};

double median_of(std::vector<double> v) { return quartiles(std::move(v)).median; }

}  // namespace

std::span<const Workload> workloads() { return kWorkloads; }

const Workload& find_workload(std::string_view name) {
  std::string names;
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return w;
    names += names.empty() ? "" : ", ";
    names += w.name;
  }
  throw Error("unknown workload '" + std::string(name) + "' (valid: " + names + ")");
}

Workload smoke_sized(const Workload& w) {
  Workload s = w;
  const double scale = 5000.0 / static_cast<double>(std::max(w.n0, w.n1));
  s.n0 = static_cast<Index>(static_cast<double>(w.n0) * scale);
  s.n1 = static_cast<Index>(static_cast<double>(w.n1) * scale);
  // The budget scales with the matrix area, keeping special-row density.
  s.sra_budget = std::max<std::int64_t>(
      std::int64_t{1} << 16,
      static_cast<std::int64_t>(static_cast<double>(w.sra_budget) * scale * scale));
  s.anchor_score = 0;
  return s;
}

Fasta write_inputs(const Workload& w, std::uint64_t seed, const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  const seq::SequencePair pair = w.related ? seq::make_related_pair(w.n0, w.n1, seed)
                                           : seq::make_unrelated_pair(w.n0, w.n1, w.island, seed);
  Fasta paths{dir / "s0.fasta", dir / "s1.fasta"};
  seq::write_fasta_file(paths.first, {pair.s0});
  seq::write_fasta_file(paths.second, {pair.s1});
  return paths;
}

void repeat_setup(const Fasta& fasta, int reps, Setup& setup) {
  const unsigned hw = std::max(1U, std::thread::hardware_concurrency());
  for (int r = 0; r < reps; ++r) {
    const Timer total;
    seq::Sequence s0 = seq::read_single_fasta(fasta.first);
    seq::Sequence s1 = seq::read_single_fasta(fasta.second);
    const double fasta_s = total.seconds();
    const Timer start;
    auto pool = std::make_unique<ThreadPool>(std::max(1U, hw - 1));
    const double pool_s = start.seconds();
    setup.total_s.push_back(total.seconds());
    setup.fasta_s.push_back(fasta_s);
    setup.pool_s.push_back(pool_s);
    if (!setup.pool) {
      setup.s0 = std::move(s0);
      setup.s1 = std::move(s1);
      setup.pool = std::move(pool);
    }
    // Otherwise this repetition's pool stops here, outside the timing.
  }
}

core::PipelineOptions pipeline_options(const Workload& w, ThreadPool* pool,
                                       const std::filesystem::path& checkpoint_dir) {
  core::PipelineOptions options;
  options.sra_rows_budget = w.sra_budget;
  options.sra_cols_budget = w.sra_budget;
  options.pool = pool;
  if (w.durable) options.checkpoint_dir = checkpoint_dir;
  return options;
}

TimedCall run_pipeline(const Workload& w, const Setup& setup,
                       const std::filesystem::path& workdir, obs::Telemetry* telemetry) {
  const std::filesystem::path checkpoint_dir = workdir / "checkpoint";
  std::filesystem::remove_all(checkpoint_dir);
  core::PipelineOptions options = pipeline_options(w, setup.pool.get(), checkpoint_dir);
  options.telemetry = telemetry;
  TimedCall call;
  const Timer timer;
  call.result = core::align_pipeline(setup.s0, setup.s1, options);
  call.seconds = timer.seconds();
  std::filesystem::remove_all(checkpoint_dir);
  return call;
}

std::string check_result(const core::PipelineResult& result, const Setup& setup,
                         const alignment::BinaryAlignment* reference,
                         std::optional<Score> expect_score) {
  if (expect_score && result.best_score != *expect_score) {
    return "best score " + std::to_string(result.best_score) + " != expected " +
           std::to_string(*expect_score);
  }
  if (result.alignment.score != result.best_score) {
    return "alignment score " + std::to_string(result.alignment.score) + " != Stage-1 best " +
           std::to_string(result.best_score);
  }
  try {
    alignment::validate(result.alignment, setup.s0.bases(), setup.s1.bases(),
                        scoring::Scheme::paper_defaults());
  } catch (const std::exception& e) {
    return std::string("alignment::validate: ") + e.what();
  }
  if (reference != nullptr && !(result.binary == *reference)) {
    return "binary alignment differs from the first run's";
  }
  return "";
}

CallSeries run_calls(const RunConfig& config, const Fasta& fasta, Setup& setup,
                     RunOutcome& out) {
  CallSeries series;
  std::optional<Timer> budget;  // Starts when the warm-up call ends.
  auto done = [&] {
    if (out.failed >= config.min_reps) return true;  // Repeated failures: nothing left to learn.
    return budget && static_cast<int>(series.seconds.size()) >= config.min_reps &&
           budget->seconds() >= config.seconds;
  };
  for (int call = 0; !done(); ++call) {
    ++out.attempted;
    try {
      TimedCall c = run_pipeline(*config.workload, setup, config.workdir);
      const std::string error =
          check_result(c.result, setup, series.reference ? &*series.reference : nullptr,
                       config.expect_score);
      if (!error.empty()) {
        ++out.failed;
        out.fail("call " + std::to_string(call) + ": " + error);
      }
      if (!series.reference) series.reference = c.result.binary;
      series.sra_peak_bytes = c.result.sra_peak_bytes;
      if (budget) series.seconds.push_back(c.seconds);
    } catch (const std::exception& e) {
      ++out.failed;
      out.fail("call " + std::to_string(call) + " threw: " + e.what());
    }
    repeat_setup(fasta, config.setup_reps, setup);
    if (!budget) budget.emplace();
  }
  return series;
}

Quartiles quartiles(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 1) return {values[0], values[0], values[0]};
  // statistics.quantiles(method="exclusive"): m = n + 1, cut i at i*m/4,
  // clamped to [1, n-1] before the interpolation weight is taken.
  auto cut = [&](long i) {
    const long count = static_cast<long>(n);
    const long j = std::clamp(i * (count + 1) / 4, 1L, count - 1);
    const long delta = i * (count + 1) - j * 4;
    return (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4;
  };
  q.q1 = cut(1);
  q.median = n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
  q.q3 = cut(3);
  return q;
}

void RunOutcome::add(std::string name, std::string unit, double value,
                     std::vector<double> samples) {
  metrics.push_back(Metric{std::move(name), std::move(unit), value, std::move(samples)});
}

void RunOutcome::add_median(std::string name, std::string unit, std::vector<double> samples) {
  const double value = median_of(samples);
  add(std::move(name), std::move(unit), value, std::move(samples));
}

void RunOutcome::fail(std::string error) { errors.push_back(std::move(error)); }

const Metric* RunOutcome::find(std::string_view name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

RunOutcome run_untraced(const RunConfig& config) {
  const Workload& w = *config.workload;
  RunOutcome out;
  const Fasta fasta = write_inputs(w, config.seed, config.workdir / "inputs");
  Setup setup;
  repeat_setup(fasta, config.setup_reps, setup);
  const CallSeries calls = run_calls(config, fasta, setup, out);
  if (calls.seconds.empty()) return out;

  const double cells = static_cast<double>(setup.s0.size()) * static_cast<double>(setup.s1.size());
  std::vector<double> gcups;
  for (const double t : calls.seconds) gcups.push_back(cells / t / 1e9);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  out.add_median("total_s", "s", calls.seconds);
  out.add_median("gcups", "GCUPS", gcups);
  out.add_median("setup_s", "s", setup.total_s);
  out.add("peak_rss_mb", "MB", static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6);
  out.add("sra_peak_mb", "MB", static_cast<double>(calls.sra_peak_bytes) / 1e6);
  out.detail.set("timed_calls", static_cast<std::int64_t>(calls.seconds.size()))
      .set("best_score", static_cast<std::int64_t>(calls.reference->score))
      .set("m", setup.s0.size())
      .set("n", setup.s1.size());
  return out;
}

}  // namespace cudalign::e2e
