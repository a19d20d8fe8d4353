// bench_e2e — the repository's end-to-end benchmark (README.md in this
// directory; BENCHMARK.json at the repository root names its workloads and
// metrics).
//
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--expect-score N] [--json-out FILE] [--smoke]
//       One run of one workload. --trace 0 measures the end-to-end metrics,
//       --trace 1 the per-layer ones. The last stdout line is one JSON object
//       {"correct", "attempted", "failed", "metrics"}; the exit code is 0 only
//       when every output passed its checks. --smoke runs the workload at
//       ~5K x 5K.
//   bench_e2e --suite [--seed N] [--seconds S] --out FILE
//       Every workload: 5 untraced runs (seeds N..N+4, --seconds 6 unless
//       given), then one traced run, each in its own child process, one at a
//       time; prints every end-to-end metric and writes one JSON set.
//   bench_e2e --compare A.json B.json
//       Compares two sets, one row per workload and end-to-end metric.
//   bench_e2e --smoke [--layers-json FILE]
//       Self-test at ~5K x 5K (the bench_e2e_smoke ctest); also checks that
//       layers.json maps every per-layer metric to a layer and to the
//       end-to-end metrics and workloads it should move.
//
// Every mode but --compare takes --workdir DIR (inputs, SRA files,
// checkpoints; nothing is written outside it) and --benchmark-json FILE.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/args.hpp"
#include "common/io_util.hpp"
#include "e2e.hpp"

extern char** environ;

namespace {

using namespace cudalign;
using namespace cudalign::e2e;
namespace fs = std::filesystem;

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;
  double bound = 0;  ///< End-to-end metrics only.
};

/// The parts of BENCHMARK.json the benchmark checks its output against.
struct BenchmarkSpec {
  std::vector<std::string> workloads;
  std::vector<MetricSpec> end_to_end;
  std::vector<MetricSpec> per_layer;
};

BenchmarkSpec load_spec(const fs::path& path) {
  const obs::Json doc = obs::Json::parse(read_file(path));
  BenchmarkSpec spec;
  for (const obs::Json& w : doc.at("workloads").as_array()) {
    spec.workloads.push_back(w.at("name").as_string());
  }
  auto metrics = [&](const char* key, bool bounded) {
    std::vector<MetricSpec> out;
    for (const obs::Json& m : doc.at(key).as_array()) {
      out.push_back(MetricSpec{m.at("name").as_string(), m.at("unit").as_string(),
                               m.at("better").as_string(),
                               bounded ? m.at("bound").as_double() : 0.0});
    }
    return out;
  };
  spec.end_to_end = metrics("end_to_end", true);
  spec.per_layer = metrics("per_layer", false);
  return spec;
}

bool has_metric(const std::vector<MetricSpec>& specs, const std::string& name) {
  return std::any_of(specs.begin(), specs.end(),
                     [&](const MetricSpec& m) { return m.name == name; });
}

/// What is wrong with layers.json, the map from each per-layer metric to its
/// layer and to the end-to-end metrics and workloads it should move: a
/// per-layer metric it leaves out or an entry BENCHMARK.json does not list, a
/// layer that is not the metric's name prefix, an unknown end-to-end metric
/// or workload.
std::vector<std::string> layer_map_problems(const fs::path& path, const BenchmarkSpec& spec) {
  const obs::Json doc = obs::Json::parse(read_file(path));
  std::vector<std::string> problems;
  for (const MetricSpec& ms : spec.per_layer) {
    const obs::Json* entry = doc.find(ms.name);
    if (entry == nullptr) {
      problems.push_back(ms.name + " is not mapped");
      continue;
    }
    const std::string& layer = entry->at("layer").as_string();
    if (!ms.name.starts_with(layer + ".")) problems.push_back(ms.name + " is not in layer " + layer);
    for (const auto& [metric, names] : entry->at("moves").as_object()) {
      if (!has_metric(spec.end_to_end, metric)) {
        problems.push_back(ms.name + " moves unknown end-to-end metric " + metric);
      }
      for (const obs::Json& name : names.as_array()) {
        if (std::find(spec.workloads.begin(), spec.workloads.end(), name.as_string()) ==
            spec.workloads.end()) {
          problems.push_back(ms.name + " names unknown workload " + name.as_string());
        }
      }
    }
  }
  for (const auto& [name, entry] : doc.as_object()) {
    if (!has_metric(spec.per_layer, name)) problems.push_back(name + " is not in BENCHMARK.json");
  }
  return problems;
}

/// A directory of this process's own under `parent`, removed on scope exit.
class RunDir {
 public:
  explicit RunDir(const fs::path& parent)
      : path_(fs::absolute(parent) / ("run-" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_ / "tmp");
    // align_pipeline puts its SRA in a temp directory; keep it in here.
    ::setenv("TMPDIR", (path_ / "tmp").c_str(), 1);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  ~RunDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const fs::path& path() const noexcept { return path_; }

 private:
  fs::path path_;
};

/// Runs this binary with `args`, its stdout sent to our stderr, and waits
/// for it. Returns its exit code (128 + signal when killed).
int run_child(const std::vector<std::string>& args) {
  std::vector<std::string> full = {"/proc/self/exe"};
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : full) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  CUDALIGN_CHECK(rc == 0, "cannot start a child process: ", std::strerror(rc));
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    CUDALIGN_CHECK(errno == EINTR, "waitpid failed: ", std::strerror(errno));
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

/// Keeps the metrics `wanted` names, in its order, and flags any missing one
/// or any unit that differs from BENCHMARK.json's.
std::vector<std::pair<const MetricSpec*, const Metric*>> select_metrics(
    RunOutcome& out, const std::vector<MetricSpec>& wanted) {
  std::vector<std::pair<const MetricSpec*, const Metric*>> selected;
  for (const MetricSpec& spec : wanted) {
    const Metric* m = out.find(spec.name);
    if (m == nullptr) {
      out.fail("metric " + spec.name + " was not measured");
    } else if (m->unit != spec.unit) {
      out.fail("metric " + spec.name + " has unit " + m->unit + ", BENCHMARK.json says " +
               spec.unit);
    } else {
      selected.emplace_back(&spec, m);
    }
  }
  return selected;
}

obs::Json doubles(const std::vector<double>& values) {
  obs::Json a = obs::Json::array();
  for (const double v : values) a.push(v);
  return a;
}

struct SingleRun {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::optional<Score> expect_score;
  fs::path workdir;
  fs::path json_out;
};

/// One run of one workload; prints the result line and returns the exit code.
int single_run(const SingleRun& run, const BenchmarkSpec& spec) {
  const Workload& full = find_workload(run.workload);
  const Workload w = run.smoke ? smoke_sized(full) : full;
  const RunDir dir(run.workdir);
  RunConfig config;
  config.workload = &w;
  config.seed = run.seed;
  config.seconds = run.seconds;
  config.workdir = dir.path();
  config.expect_score = run.expect_score;
  if (!config.expect_score && run.seed == kDefaultSeed && w.anchor_score > 0) {
    config.expect_score = w.anchor_score;
  }
  if (run.smoke) {
    config.setup_reps = 3;
    config.min_reps = 1;
  }

  RunOutcome out;
  try {
    out = run.trace ? run_traced(config) : run_untraced(config);
  } catch (const std::exception& e) {
    ++out.attempted;
    ++out.failed;
    out.fail(std::string("run threw: ") + e.what());
  }
  const auto selected = select_metrics(out, run.trace ? spec.per_layer : spec.end_to_end);

  std::printf("workload %s (seed %llu, %s, %s)\n", std::string(w.name).c_str(),
              static_cast<unsigned long long>(run.seed), run.trace ? "traced" : "untraced",
              run.smoke ? "smoke size" : "full size");
  obs::Json metrics = obs::Json::object();
  obs::Json detailed = obs::Json::object();
  for (const auto& [ms, m] : selected) {
    const Quartiles q = quartiles(m->samples.empty() ? std::vector<double>{m->value} : m->samples);
    const std::size_t n = std::max<std::size_t>(1, m->samples.size());
    std::printf("  %-36s %14.6g %-8s (n=%zu)\n", m->name.c_str(), m->value, m->unit.c_str(), n);
    metrics.set(m->name, obs::Json::object().set("value", m->value).set("unit", m->unit));
    obs::Json d = obs::Json::object()
                      .set("value", m->value)
                      .set("unit", m->unit)
                      .set("better", ms->better)
                      .set("n", static_cast<std::int64_t>(n))
                      .set("q1", q.q1)
                      .set("q3", q.q3)
                      .set("samples", doubles(m->samples.empty() ? std::vector<double>{m->value}
                                                                 : m->samples));
    if (!run.trace) d.set("bound", ms->bound);
    detailed.set(m->name, std::move(d));
  }
  for (const std::string& e : out.errors) std::printf("  FAILED: %s\n", e.c_str());
  const double failed_frac =
      out.attempted > 0 ? static_cast<double>(out.failed) / out.attempted : 1.0;
  std::printf("  failed_frac = %g (%d of %d runs)\n", failed_frac, out.failed, out.attempted);

  if (!run.json_out.empty()) {
    obs::Json errors = obs::Json::array();
    for (const std::string& e : out.errors) errors.push(e);
    const obs::Json doc = obs::Json::object()
                              .set("workload", std::string(w.name))
                              .set("seed", static_cast<std::int64_t>(run.seed))
                              .set("trace", run.trace)
                              .set("correct", out.correct())
                              .set("attempted", out.attempted)
                              .set("failed", out.failed)
                              .set("failed_frac", failed_frac)
                              .set("errors", std::move(errors))
                              .set("metrics", std::move(detailed))
                              .set("detail", out.detail);
    write_file(run.json_out, doc.dump(2) + "\n");
  }
  const obs::Json line = obs::Json::object()
                             .set("correct", out.correct())
                             .set("attempted", out.attempted)
                             .set("failed", out.failed)
                             .set("metrics", std::move(metrics));
  std::printf("%s\n", line.dump(0).c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}

std::vector<std::string> child_args(const SingleRun& run, const fs::path& spec_path) {
  std::vector<std::string> args = {"--workload", run.workload,
                                   "--seed", std::to_string(run.seed),
                                   "--seconds", std::to_string(run.seconds),
                                   "--trace", run.trace ? "1" : "0",
                                   "--workdir", run.workdir.string(),
                                   "--benchmark-json", spec_path.string(),
                                   "--json-out", run.json_out.string()};
  if (run.smoke) args.push_back("--smoke");
  if (run.expect_score) {
    args.push_back("--expect-score");
    args.push_back(std::to_string(*run.expect_score));
  }
  return args;
}

/// Runs one child and returns the document it wrote with --json-out (a
/// failure stub when it wrote none); clears `ok` when the run failed.
obs::Json child_doc(const SingleRun& run, const fs::path& spec_path, bool& ok) {
  std::fprintf(stderr, "== %s seed %llu (%s)\n", run.workload.c_str(),
               static_cast<unsigned long long>(run.seed), run.trace ? "traced" : "untraced");
  fs::remove(run.json_out);
  const int code = run_child(child_args(run, spec_path));
  obs::Json doc;
  try {
    doc = obs::Json::parse(read_file(run.json_out));
    fs::remove(run.json_out);
  } catch (const std::exception& e) {
    doc = obs::Json::object().set("correct", false).set("error", e.what());
  }
  if (code != 0 || !doc.at("correct").as_bool()) {
    ok = false;
    std::printf("%-16s seed %llu %s run FAILED (exit %d)\n", run.workload.c_str(),
                static_cast<unsigned long long>(run.seed), run.trace ? "traced" : "untraced",
                code);
  }
  return doc;
}

/// Untraced runs per workload in a set, and their --seconds unless given.
/// With five runs q1 and q3 are means of the two lowest and the two highest
/// values, not the extremes, and a set still takes about six minutes on a
/// 4-core host (a run makes at least 3 timed calls whatever --seconds says).
constexpr int kSuiteRuns = 5;
constexpr double kSuiteSeconds = 6;

/// --suite: per workload, kSuiteRuns untraced runs (seeds seed, seed+1, ...)
/// and one traced run, each in its own process, one at a time. A metric's
/// set value is the median of its per-run values; their spread is the
/// run-to-run spread --compare judges.
int suite(const SingleRun& base, const fs::path& spec_path, const BenchmarkSpec& spec,
          const fs::path& out_path) {
  obs::Json sets = obs::Json::array();
  bool ok = true;
  std::printf("%-16s %-12s %12s  %-6s %-4s %s\n", "workload", "metric", "median", "unit", "runs",
              "q1..q3 spread");
  for (const std::string& name : spec.workloads) {
    SingleRun run = base;
    run.workload = name;
    run.json_out = fs::absolute(base.workdir) / (name + ".json");
    obs::Json untraced = obs::Json::array();
    std::int64_t attempted = 0, failed = 0;
    for (int r = 0; r < kSuiteRuns; ++r) {
      run.seed = base.seed + static_cast<std::uint64_t>(r);
      obs::Json doc = child_doc(run, spec_path, ok);
      if (const obs::Json* a = doc.find("attempted")) attempted += a->as_int();
      if (const obs::Json* f = doc.find("failed")) failed += f->as_int();
      untraced.push(std::move(doc));
    }
    run.seed = base.seed;
    run.trace = true;
    obs::Json traced = child_doc(run, spec_path, ok);

    obs::Json metrics = obs::Json::object();
    for (const MetricSpec& ms : spec.end_to_end) {
      std::vector<double> values;
      for (const obs::Json& doc : untraced.as_array()) {
        const obs::Json* all = doc.find("metrics");
        const obs::Json* m = all != nullptr ? all->find(ms.name) : nullptr;
        if (m != nullptr) values.push_back(m->at("value").as_double());
      }
      if (values.empty()) continue;
      const Quartiles q = quartiles(values);
      std::printf("%-16s %-12s %12.6g  %-6s %-4zu %.2f%%\n", name.c_str(), ms.name.c_str(),
                  q.median, ms.unit.c_str(), values.size(), (q.q3 - q.q1) / q.median * 100);
      metrics.set(ms.name, obs::Json::object()
                               .set("value", q.median)
                               .set("unit", ms.unit)
                               .set("better", ms.better)
                               .set("bound", ms.bound)
                               .set("q1", q.q1)
                               .set("q3", q.q3)
                               .set("samples", doubles(values)));
    }
    const double failed_frac = attempted > 0 ? static_cast<double>(failed) / attempted : 1.0;
    std::printf("%-16s %-12s %12.6g  (%lld of %lld pipeline runs)\n", name.c_str(), "failed_frac",
                failed_frac, static_cast<long long>(failed), static_cast<long long>(attempted));
    sets.push(obs::Json::object()
                  .set("name", name)
                  .set("metrics", std::move(metrics))
                  .set("failed_frac", failed_frac)
                  .set("untraced_runs", std::move(untraced))
                  .set("traced_run", std::move(traced)));
  }
  const obs::Json doc = obs::Json::object()
                            .set("schema", "cudalign-e2ebench-set")
                            .set("schema_version", 1)
                            .set("seed", static_cast<std::int64_t>(base.seed))
                            .set("runs", kSuiteRuns)
                            .set("seconds", base.seconds)
                            .set("hardware_threads",
                                 static_cast<std::int64_t>(std::thread::hardware_concurrency()))
                            .set("workloads", std::move(sets));
  write_file(out_path, doc.dump(2) + "\n");
  std::printf("set -> %s (%s)\n", out_path.c_str(), ok ? "all checks passed" : "FAILURES");
  return ok ? 0 : 1;
}

/// --smoke: the layer map, then every workload at ~5K x 5K, one untraced and
/// one traced run in this process, then a wrong --expect-score in a child
/// process.
int smoke(const fs::path& workdir, const fs::path& spec_path, const fs::path& layers_path,
          const BenchmarkSpec& spec) {
  int problems = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    problems += ok ? 0 : 1;
  };
  std::vector<std::string> table;
  for (const Workload& w : workloads()) table.emplace_back(w.name);
  expect(table == spec.workloads, "BENCHMARK.json names the workload table's workloads in order");
  const std::vector<std::string> unmapped = layer_map_problems(layers_path, spec);
  for (const std::string& p : unmapped) std::printf("     layers.json: %s\n", p.c_str());
  expect(unmapped.empty(), "layers.json maps every per-layer metric to its layer, end-to-end "
                           "metrics and workloads");

  for (const Workload& full : workloads()) {
    const Workload w = smoke_sized(full);
    const RunDir dir(workdir);
    RunConfig config;
    config.workload = &w;
    config.seconds = 0;
    config.min_reps = 1;
    config.setup_reps = 3;
    config.workdir = dir.path();
    const std::string name(w.name);
    for (const bool trace : {false, true}) {
      RunOutcome out = trace ? run_traced(config) : run_untraced(config);
      const std::vector<MetricSpec>& wanted = trace ? spec.per_layer : spec.end_to_end;
      const std::size_t found = select_metrics(out, wanted).size();
      for (const std::string& e : out.errors) std::printf("     %s: %s\n", name.c_str(), e.c_str());
      // A traced run is only correct when the traced call's binary
      // alignment equals the untraced calls', byte for byte.
      expect(out.correct(), name + (trace ? " traced" : " untraced") + " run passes its checks");
      expect(found == wanted.size(), name + ": all " + std::to_string(wanted.size()) +
                                  (trace ? " per-layer" : " end-to-end") + " metrics present");
    }
  }

  SingleRun wrong;
  wrong.workload = std::string(workloads()[0].name);
  wrong.seconds = 0;
  wrong.smoke = true;
  wrong.expect_score = 1;
  wrong.workdir = workdir;
  wrong.json_out = fs::absolute(workdir) / "wrong-score.json";
  fs::remove(wrong.json_out);
  const int code = run_child(child_args(wrong, spec_path));
  const obs::Json doc = obs::Json::parse(read_file(wrong.json_out));
  fs::remove(wrong.json_out);
  expect(code != 0, "a wrong --expect-score exits non-zero");
  expect(doc.at("failed_frac").as_double() == 1.0, "a wrong --expect-score gives failed_frac 1");
  std::printf("%s\n", problems == 0 ? "smoke passed" : "smoke FAILED");
  return problems == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--expect-score N] [--json-out FILE] [--smoke]\n"
               "                 --workdir DIR [--benchmark-json FILE]\n"
               "       bench_e2e --suite [--seed N] [--seconds S] --out FILE\n"
               "                 --workdir DIR [--benchmark-json FILE]\n"
               "       bench_e2e --compare A.json B.json\n"
               "       bench_e2e --smoke --workdir DIR [--benchmark-json FILE]\n"
               "                 [--layers-json FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const common::Args args(argc, argv, 1);
    args.check_known({"workload", "seed", "seconds", "trace", "expect-score", "json-out", "smoke",
                      "suite", "out", "compare", "workdir", "benchmark-json", "layers-json"});
    if (args.has("compare")) {
      if (args.positional().size() != 1) return usage();
      return compare_sets(args.str("compare"), args.positional()[0]);
    }
    if (!args.positional().empty() || !args.has("workdir")) return usage();
    const fs::path spec_path = fs::absolute(args.str("benchmark-json", "BENCHMARK.json"));
    const BenchmarkSpec spec = load_spec(spec_path);

    SingleRun run;
    run.workdir = args.str("workdir");
    run.seed = static_cast<std::uint64_t>(args.num("seed", kDefaultSeed));
    run.seconds = args.has("seconds") ? std::stod(args.str("seconds"))
                  : args.has("suite")   ? kSuiteSeconds
                                        : 10;
    CUDALIGN_CHECK(run.seconds >= 0, "--seconds must be non-negative");
    run.smoke = args.has("smoke");
    if (args.has("expect-score")) {
      run.expect_score = static_cast<Score>(args.num("expect-score", 0));
    }
    fs::create_directories(run.workdir);

    if (args.has("workload")) {
      const std::string trace = args.str("trace", "0");
      CUDALIGN_CHECK(trace == "0" || trace == "1", "--trace expects 0 or 1, got '", trace, "'");
      run.workload = args.str("workload");
      run.trace = trace == "1";
      run.json_out = args.str("json-out");
      return single_run(run, spec);
    }
    if (args.has("suite")) {
      if (!args.has("out")) return usage();
      return suite(run, spec_path, spec, fs::absolute(args.str("out")));
    }
    if (run.smoke) {
      return smoke(run.workdir, spec_path,
                   fs::absolute(args.str("layers-json", "e2ebench/layers.json")), spec);
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
