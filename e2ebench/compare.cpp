// bench_e2e --compare: two sets of runs (run.sh --out files), one row per
// workload and end-to-end metric, judged by each metric's bound.
#include <algorithm>
#include <cstdio>

#include "common/io_util.hpp"
#include "e2e.hpp"

namespace cudalign::e2e {

namespace {

std::vector<double> samples_of(const obs::Json& metric) {
  std::vector<double> out;
  for (const obs::Json& v : metric.at("samples").as_array()) out.push_back(v.as_double());
  return out;
}

const obs::Json* find_workload_entry(const obs::Json& set, const std::string& name) {
  for (const obs::Json& w : set.at("workloads").as_array()) {
    if (w.at("name").as_string() == name) return &w;
  }
  return nullptr;
}

/// The change below which a metric never counts as worse, whatever its
/// relative bound: setup_s is ~2.5 ms, so its 25% is a fraction of a
/// millisecond of pool-start jitter. BENCHMARK.json entries have a fixed set
/// of keys, so the floor lives here.
double absolute_floor(const std::string& metric) { return metric == "setup_s" ? 0.010 : 0.0; }

/// "ok", "worse" or "unresolved" for B (the change) against A (the base).
/// A set's tolerance is the larger of `bound` times its median and `floor`.
/// A q1..q3 range wider than its set's tolerance leaves the row unresolved
/// unless every run of B reads better than every run of A.
std::string verdict(const std::vector<double>& a, const std::vector<double>& b, bool lower_better,
                    double bound, double floor) {
  const Quartiles qa = quartiles(a);
  const Quartiles qb = quartiles(b);
  auto tolerance = [&](const Quartiles& q) { return std::max(bound * q.median, floor); };
  const double worse = lower_better ? qb.median - qa.median : qa.median - qb.median;
  const bool wide = qa.q3 - qa.q1 > tolerance(qa) || qb.q3 - qb.q1 > tolerance(qb);
  bool all_better = true;
  for (const double x : a) {
    for (const double y : b) all_better = all_better && (lower_better ? y < x : y > x);
  }
  if (wide && !all_better) return "unresolved";
  return worse > tolerance(qa) ? "worse" : "ok";
}

}  // namespace

int compare_sets(const std::filesystem::path& a_path, const std::filesystem::path& b_path) {
  const obs::Json a = obs::Json::parse(read_file(a_path));
  const obs::Json b = obs::Json::parse(read_file(b_path));
  std::printf("A = %s\nB = %s\n", a_path.c_str(), b_path.c_str());
  std::printf("%-16s %-12s %11s %-23s %11s %-23s %8s %6s  %s\n", "workload", "metric", "A median",
              "A q1..q3", "B median", "B q1..q3", "delta", "bound", "verdict");
  int bad = 0;
  for (const obs::Json& wa : a.at("workloads").as_array()) {
    const std::string name = wa.at("name").as_string();
    const obs::Json* wb = find_workload_entry(b, name);
    for (const auto& [metric, ma] : wa.at("metrics").as_object()) {
      const obs::Json* mb = wb != nullptr ? wb->at("metrics").find(metric) : nullptr;
      if (mb == nullptr) {
        std::printf("%-16s %-12s missing from B\n", name.c_str(), metric.c_str());
        ++bad;
        continue;
      }
      const std::vector<double> sa = samples_of(ma);
      const std::vector<double> sb = samples_of(*mb);
      const Quartiles qa = quartiles(sa);
      const Quartiles qb = quartiles(sb);
      const double bound = ma.at("bound").as_double();
      const double floor = absolute_floor(metric);
      const std::string v =
          verdict(sa, sb, ma.at("better").as_string() == "lower", bound, floor);
      char qa_text[64], qb_text[64];
      std::snprintf(qa_text, sizeof qa_text, "%.5g..%.5g", qa.q1, qa.q3);
      std::snprintf(qb_text, sizeof qb_text, "%.5g..%.5g", qb.q1, qb.q3);
      // The bound column is A's tolerance as a share of A's median.
      std::printf("%-16s %-12s %11.5g %-23s %11.5g %-23s %+7.2f%% %5.1f%%  %s\n", name.c_str(),
                  metric.c_str(), qa.median, qa_text, qb.median, qb_text,
                  (qb.median - qa.median) / qa.median * 100,
                  std::max(bound, floor / qa.median) * 100, v.c_str());
      bad += v == "ok" ? 0 : 1;
    }
  }
  std::printf("%s\n", bad == 0 ? "every row ok" : "some rows are worse, unresolved or missing");
  return bad == 0 ? 0 : 1;
}

}  // namespace cudalign::e2e
