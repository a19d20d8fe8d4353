#include "cudalint/driver.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "cudalint/concurrency.hpp"
#include "cudalint/dataflow.hpp"
#include "cudalint/parser.hpp"

namespace cudalint {
namespace fs = std::filesystem;
namespace {

[[nodiscard]] bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h";
}

[[nodiscard]] std::optional<std::string> read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return std::move(buf).str();
}

void sort_diagnostics(std::vector<Diagnostic>& diags) {
  std::sort(diags.begin(), diags.end(), [](const Diagnostic& a, const Diagnostic& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
}

/// First path component — the "tree" the budget is keyed by ("src/x.cpp" ->
/// "src"; a bare filename is its own tree).
[[nodiscard]] std::string tree_of(std::string_view path) {
  const std::size_t slash = path.find('/');
  return std::string(slash == std::string_view::npos ? path : path.substr(0, slash));
}

[[nodiscard]] bool rule_disabled(const RunOptions& options, std::string_view rule) {
  return std::find(options.disabled_rules.begin(), options.disabled_rules.end(), rule) !=
         options.disabled_rules.end();
}

/// Everything produced for one file; merged into RunResult in file order so
/// reports are deterministic regardless of worker interleaving.
struct FileReport {
  std::vector<Diagnostic> diagnostics;
  std::vector<SuppressionUse> suppressions;
  std::vector<LockEdge> lock_edges;  ///< Acquired-while-held; merged in phase 4.
  int suppressed = 0;
  int markers = 0;
};

/// Rules + suppression accounting for one already-analyzed file.
[[nodiscard]] FileReport lint_one(const LexedFile& lexed, const ParsedFile& parsed,
                                  const DeclIndex& index, const DataflowIndex& dfi,
                                  const LayeringManifest* manifest,
                                  const RunOptions& options) {
  FileReport report;
  std::vector<Diagnostic> diags = run_rules(lexed, manifest);
  run_concurrency_rules(lexed, parsed, index, diags);
  run_dataflow_rules(lexed, parsed, index, dfi, diags, report.lock_edges);
  if (!options.disabled_rules.empty()) {
    std::erase_if(diags, [&](const Diagnostic& d) { return rule_disabled(options, d.rule); });
  }

  // Suppression accounting: same-line markers swallow matching diagnostics.
  std::map<std::pair<int, std::string>, int> fired;  // (line, rule) -> count
  std::erase_if(diags, [&](const Diagnostic& d) {
    for (const AllowComment& allow : lexed.allows) {
      if (allow.line == d.line && allow.rule == d.rule) {
        ++fired[{allow.line, allow.rule}];
        return true;
      }
    }
    return false;
  });
  report.markers = static_cast<int>(lexed.allows.size());
  for (const AllowComment& allow : lexed.allows) {
    const auto it = fired.find({allow.line, allow.rule});
    if (it != fired.end()) {
      report.suppressions.push_back(
          SuppressionUse{lexed.path, allow.line, allow.rule, it->second});
      report.suppressed += it->second;
      fired.erase(it);  // one marker per (line, rule); don't double-report
      continue;
    }
    // A marker for a rule this run disables is excused, not unused: the same
    // file is linted by several per-tree ctest configurations.
    if (rule_disabled(options, allow.rule)) continue;
    const std::string why = is_known_rule(allow.rule)
                                ? "marker suppressed no '" + allow.rule + "' diagnostic"
                                : "marker names unknown rule '" + allow.rule + "'";
    diags.push_back(Diagnostic{lexed.path, allow.line, "unused-suppression", why});
  }
  report.diagnostics = std::move(diags);
  return report;
}

/// Runs `work(i)` for every i in [0, n) across `options.jobs` workers using
/// strided ownership — no shared counter, so cudalint needs none of the
/// atomics it lints. Exceptions propagate through the futures.
void parallel_for_n(std::size_t n, const RunOptions& options,
                    const std::function<void(std::size_t)>& work) {
  std::size_t jobs = options.jobs > 0 ? static_cast<std::size_t>(options.jobs)
                                      : std::thread::hardware_concurrency();
  if (jobs == 0) jobs = 1;
  jobs = std::min(jobs, n);
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) work(i);
    return;
  }
  std::vector<std::future<void>> workers;
  workers.reserve(jobs - 1);
  for (std::size_t w = 1; w < jobs; ++w) {
    workers.push_back(std::async(std::launch::async, [&, w] {
      for (std::size_t i = w; i < n; i += jobs) work(i);
    }));
  }
  for (std::size_t i = 0; i < n; i += jobs) work(i);
  for (std::future<void>& worker : workers) worker.get();
}

}  // namespace

bool parse_budget(std::string_view text, SuppressionBudget* budget, std::string* error) {
  const auto fail = [&](std::size_t line_no, const std::string& why) {
    if (error != nullptr) {
      *error = "suppression budget line " + std::to_string(line_no) + ": " + why;
    }
    return false;
  };
  std::size_t line_no = 0;
  std::istringstream in{std::string(text)};
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream stream(line);
    std::vector<std::string> fields;
    std::string field;
    while (stream >> field) fields.push_back(field);
    if (fields.empty()) continue;  // Blank / comment-only line.
    if (fields.size() != 2 && fields.size() != 3) {
      return fail(line_no,
                  "expected '<tree> <count>' or '<tree> <rule> <count>'");
    }
    long long count = 0;
    try {
      std::size_t used = 0;
      count = std::stoll(fields.back(), &used);
      if (used != fields.back().size()) count = -1;
    } catch (...) {
      count = -1;
    }
    if (count < 0) return fail(line_no, "expected a non-negative count");
    if (fields.size() == 2) {
      budget->per_tree[fields[0]] = static_cast<int>(count);
      continue;
    }
    // Per-rule cap: `<tree> <rule> <count>`. Unknown rule names are errors —
    // a typo'd budget line must not silently fail-closed the wrong rule.
    if (!is_known_rule(fields[1])) {
      return fail(line_no, "unknown rule '" + fields[1] + "'");
    }
    budget->per_rule[{fields[0], fields[1]}] = static_cast<int>(count);
    budget->rule_trees.insert(fields[0]);
  }
  return true;
}

void lint_sources(const std::vector<SourceFile>& sources, const LayeringManifest* manifest,
                  const SuppressionBudget* budget, const RunOptions& options,
                  RunResult& result) {
  const std::size_t n = sources.size();
  std::vector<LexedFile> lexed(n);
  std::vector<ParsedFile> parsed(n);

  // Phase 1 (parallel): lex + parse every file.
  parallel_for_n(n, options, [&](std::size_t i) {
    lexed[i] = lex(sources[i].path, sources[i].content);
    parsed[i] = parse(lexed[i]);
  });

  // Phase 2 (serial barrier): the cross-file declaration index plus the
  // dataflow index (acquire/release call contracts, envelope target set).
  // Annotations live in headers while member bodies live in .cpp files, so
  // every rule phase needs every file's declarations.
  DeclIndex index;
  for (const ParsedFile& p : parsed) index.add(p);
  const DataflowIndex dfi = build_dataflow_index(lexed, parsed, index);

  // Phase 3 (parallel): rules + per-file suppression accounting.
  std::vector<FileReport> reports(n);
  parallel_for_n(n, options, [&](std::size_t i) {
    reports[i] = lint_one(lexed[i], parsed[i], index, dfi, manifest, options);
  });

  // Phase 4 (serial): merge in file order — deterministic at any job count.
  std::map<std::string, int> markers_by_tree;
  std::map<std::pair<std::string, std::string>, int> markers_by_tree_rule;
  std::vector<LockEdge> lock_edges;
  for (std::size_t i = 0; i < n; ++i) {
    FileReport& report = reports[i];
    result.diagnostics.insert(result.diagnostics.end(), report.diagnostics.begin(),
                              report.diagnostics.end());
    result.suppressions.insert(result.suppressions.end(), report.suppressions.begin(),
                               report.suppressions.end());
    lock_edges.insert(lock_edges.end(), report.lock_edges.begin(), report.lock_edges.end());
    result.suppressed_total += report.suppressed;
    result.markers_total += report.markers;
    const std::string tree = tree_of(sources[i].path);
    markers_by_tree[tree] += report.markers;
    for (const AllowComment& allow : lexed[i].allows) {
      ++markers_by_tree_rule[{tree, allow.rule}];
    }
    ++result.files_scanned;
  }

  // Whole-program deadlock detection over the merged acquired-while-held
  // graph. Runs after per-file suppression accounting on purpose: a
  // lock-order cycle spans functions and files, so no single allow marker
  // can excuse it.
  if (!rule_disabled(options, "lock-order-cycle")) {
    detect_lock_order_cycles(lock_edges, result.diagnostics);
  }

  // Budget: per-tree caps fail closed (a tree with markers but no entry is
  // over budget), so a new allow marker always needs a visible budget bump.
  if (budget != nullptr) {
    for (const auto& [tree, markers] : markers_by_tree) {
      if (markers == 0) continue;
      const auto it = budget->per_tree.find(tree);
      const int cap = it == budget->per_tree.end() ? 0 : it->second;
      if (markers > cap) {
        result.diagnostics.push_back(Diagnostic{
            budget->source_path, 1, "suppression-budget",
            "tree '" + tree + "' has " + std::to_string(markers) + " allow marker(s), budget " +
                (it == budget->per_tree.end() ? std::string("has no entry")
                                              : "allows " + std::to_string(cap)) +
                " — remove the marker or bump the budget in the same change"});
      }
    }
    // Per-rule caps, for trees that opted in: every rule is capped once the
    // tree names any (unlisted rules fail closed at 0).
    for (const auto& [key, markers] : markers_by_tree_rule) {
      const auto& [tree, rule] = key;
      if (markers == 0 || !budget->rule_trees.contains(tree)) continue;
      const auto it = budget->per_rule.find(key);
      const int cap = it == budget->per_rule.end() ? 0 : it->second;
      if (markers > cap) {
        result.diagnostics.push_back(Diagnostic{
            budget->source_path, 1, "suppression-budget",
            "tree '" + tree + "' has " + std::to_string(markers) + " allow marker(s) for '" +
                rule + "', budget " +
                (it == budget->per_rule.end() ? std::string("has no entry for that rule")
                                              : "allows " + std::to_string(cap)) +
                " — remove the marker or add a '" + tree + " " + rule +
                " N' line in the same change"});
      }
    }
  }
  if (options.max_suppressions >= 0 && result.markers_total > options.max_suppressions) {
    result.diagnostics.push_back(Diagnostic{
        budget != nullptr ? budget->source_path : "(scan)", 1, "suppression-budget",
        "scan has " + std::to_string(result.markers_total) +
            " allow marker(s), --max-suppressions allows " +
            std::to_string(options.max_suppressions)});
  }
  sort_diagnostics(result.diagnostics);
}

void lint_content(std::string_view path, std::string_view content,
                  const LayeringManifest* manifest, RunResult& result) {
  const RunOptions options;
  lint_sources({SourceFile{std::string(path), std::string(content)}}, manifest,
               /*budget=*/nullptr, options, result);
}

RunResult run(const RunOptions& options) {
  RunResult result;
  const fs::path root = options.root.empty() ? fs::path(".") : fs::path(options.root);

  // Manifest: load, parse, cycle-check. Any failure is a config error — a
  // lint run with no layering rule silently passing would be worse than
  // failing loudly.
  const fs::path manifest_path = options.manifest_path.empty()
                                     ? root / "tools/cudalint/layering.manifest"
                                     : fs::path(options.manifest_path);
  std::optional<LayeringManifest> manifest;
  if (const auto text = read_file(manifest_path); !text.has_value()) {
    result.config_errors.push_back("cannot read layering manifest: " + manifest_path.string());
  } else {
    std::string error;
    manifest = LayeringManifest::parse(*text, &error);
    if (!manifest.has_value()) {
      result.config_errors.push_back(error);
    } else if (const auto cycle = manifest->find_cycle(); cycle.has_value()) {
      std::string msg = "layering manifest has a dependency cycle: ";
      for (std::size_t i = 0; i < cycle->size(); ++i) {
        if (i > 0) msg += " -> ";
        msg += (*cycle)[i];
      }
      result.config_errors.push_back(msg);
      manifest.reset();
    }
  }

  // Budget file, when requested (resolved relative to the root).
  std::optional<SuppressionBudget> budget;
  if (!options.budget_path.empty()) {
    const fs::path budget_path = fs::path(options.budget_path).is_absolute()
                                     ? fs::path(options.budget_path)
                                     : root / options.budget_path;
    if (const auto text = read_file(budget_path); !text.has_value()) {
      result.config_errors.push_back("cannot read suppression budget: " + budget_path.string());
    } else {
      SuppressionBudget parsed_budget;
      parsed_budget.source_path = options.budget_path;
      std::string error;
      if (!parse_budget(*text, &parsed_budget, &error)) {
        result.config_errors.push_back(error);
      } else {
        budget = std::move(parsed_budget);
      }
    }
  }

  // Unknown rule names in --disable are config errors, not silent no-ops.
  for (const std::string& rule : options.disabled_rules) {
    if (!is_known_rule(rule)) {
      result.config_errors.push_back("--disable names unknown rule '" + rule + "'");
    }
  }

  // Collect files, sorted for deterministic output.
  std::vector<fs::path> files;
  std::vector<std::string> paths = options.paths;
  if (paths.empty()) paths.push_back("src");
  for (const std::string& p : paths) {
    const fs::path abs = root / p;
    std::error_code ec;
    if (fs::is_directory(abs, ec)) {
      for (fs::recursive_directory_iterator it(abs, ec), end; it != end; it.increment(ec)) {
        if (it->is_regular_file(ec) && lintable(it->path())) files.push_back(it->path());
      }
    } else if (fs::is_regular_file(abs, ec)) {
      files.push_back(abs);
    } else {
      result.config_errors.push_back("no such file or directory: " + abs.string());
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (const fs::path& file : files) {
    auto content = read_file(file);
    if (!content.has_value()) {
      result.config_errors.push_back("cannot read file: " + file.string());
      continue;
    }
    sources.push_back(
        SourceFile{file.lexically_relative(root).generic_string(), *std::move(content)});
  }
  lint_sources(sources, manifest.has_value() ? &*manifest : nullptr,
               budget.has_value() ? &*budget : nullptr, options, result);
  return result;
}

cudalign::obs::Json to_json(const RunResult& result) {
  using cudalign::obs::Json;
  Json diags = Json::array();
  for (const Diagnostic& d : result.diagnostics) {
    diags.push(Json::object()
                   .set("file", d.file)
                   .set("line", static_cast<std::int64_t>(d.line))
                   .set("rule", d.rule)
                   .set("message", d.message));
  }
  Json suppressions = Json::array();
  for (const SuppressionUse& s : result.suppressions) {
    suppressions.push(Json::object()
                          .set("file", s.file)
                          .set("line", static_cast<std::int64_t>(s.line))
                          .set("rule", s.rule)
                          .set("count", static_cast<std::int64_t>(s.count)));
  }
  Json by_rule = Json::object();
  {
    std::map<std::string, std::int64_t> counts;
    for (const Diagnostic& d : result.diagnostics) ++counts[d.rule];
    for (const auto& [rule, count] : counts) by_rule.set(rule, count);
  }
  Json errors = Json::array();
  for (const std::string& e : result.config_errors) errors.push(e);
  return Json::object()
      .set("tool", "cudalint")
      .set("schema_version", 2)
      .set("files_scanned", static_cast<std::int64_t>(result.files_scanned))
      .set("diagnostics", std::move(diags))
      .set("diagnostics_by_rule", std::move(by_rule))
      .set("suppressions", std::move(suppressions))
      .set("suppressed_total", static_cast<std::int64_t>(result.suppressed_total))
      .set("markers_total", static_cast<std::int64_t>(result.markers_total))
      .set("config_errors", std::move(errors))
      .set("clean", result.clean());
}

std::string to_text(const RunResult& result) {
  std::ostringstream out;
  for (const std::string& e : result.config_errors) out << "cudalint: error: " << e << "\n";
  for (const Diagnostic& d : result.diagnostics) {
    out << d.file << ":" << d.line << ": [" << d.rule << "] " << d.message << "\n";
  }
  out << "cudalint: " << result.diagnostics.size() << " diagnostic(s) over "
      << result.files_scanned << " file(s)";
  if (result.suppressed_total > 0) {
    out << ", " << result.suppressed_total << " suppressed by " << result.suppressions.size()
        << " allow marker(s)";
  }
  out << "\n";
  return std::move(out).str();
}

}  // namespace cudalint
