// cudalint driver: file discovery, two-phase cross-file analysis, parallel
// execution, suppression accounting, and report rendering (human text,
// machine JSON via obs::Json, GitHub annotations via main.cpp).
//
// v2 pipeline (declaration-aware): every file is lexed AND parsed in a
// parallel first phase; a serial barrier builds the cross-file DeclIndex
// (annotations live in headers, member bodies in .cpp files); a parallel
// second phase runs the token rules plus the concurrency pack and settles
// per-file suppressions. Reports merge in sorted-file order, so the output
// is deterministic at any worker count.
//
// Suppression policy: a diagnostic of rule R on line L is suppressed by a
// `// cudalint: allow(R)` marker whose comment STARTS on line L (same-line
// only — no next-line form, so a marker can never drift away from the code it
// excuses). Every suppression is counted and reported; a marker that
// suppresses nothing, or names an unknown rule, is itself a diagnostic
// (`unused-suppression`), so the allowlist cannot rot silently. On top of
// that, the checked-in suppressions.budget caps the marker count per scanned
// tree (`suppression-budget`): growing the allowlist requires bumping the
// budget in the same change, where review can see it.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cudalint/layering.hpp"
#include "cudalint/rules.hpp"
#include "obs/json.hpp"

namespace cudalint {

struct RunOptions {
  std::string root = ".";           ///< Repo root; scanned paths are relative to it.
  std::vector<std::string> paths;   ///< Files or directories; default {"src"}.
  std::string manifest_path;        ///< Default: <root>/tools/cudalint/layering.manifest.
  std::string budget_path;          ///< Suppression budget file; "" = no budget check.
  std::vector<std::string> disabled_rules;  ///< Per-tree config: rules to skip entirely.
  int max_suppressions = -1;        ///< Global marker cap; -1 = off.
  int jobs = 0;                     ///< Analysis workers; 0 = hardware concurrency.
};

/// One allow-marker that fired, with how many diagnostics it swallowed.
struct SuppressionUse {
  std::string file;
  int line = 0;
  std::string rule;
  int count = 0;
};

struct RunResult {
  std::vector<Diagnostic> diagnostics;     ///< Post-suppression, sorted file/line.
  std::vector<SuppressionUse> suppressions;
  std::vector<std::string> config_errors;  ///< Manifest / IO problems (exit 2).
  int files_scanned = 0;
  int suppressed_total = 0;
  int markers_total = 0;  ///< All allow markers seen (used or not) — budget input.

  [[nodiscard]] bool clean() const noexcept {
    return diagnostics.empty() && config_errors.empty();
  }
};

/// An in-memory file for lint_sources — the multi-file test entry point.
struct SourceFile {
  std::string path;
  std::string content;
};

/// Per-tree allow-marker budget, keyed by the first path component ("src",
/// "tests", "tools"). A tree with markers but no entry fails closed. A tree
/// may additionally budget per rule (`src narrow-cast 1`); once it names ANY
/// rule, every rule is capped — markers for rules without an entry fail
/// closed at 0, so a new kind of suppression always needs a visible budget
/// line.
struct SuppressionBudget {
  std::string source_path;  ///< Where the budget came from (for diagnostics).
  std::map<std::string, int> per_tree;
  std::map<std::pair<std::string, std::string>, int> per_rule;  ///< (tree, rule) caps.
  std::set<std::string> rule_trees;  ///< Trees that opted into per-rule caps.
};

/// Parses `src 1` (tree total) and `src narrow-cast 1` (per-rule) lines; '#'
/// starts a comment. Rule names are validated against the catalogue. Returns
/// false and sets `*error` on malformed input.
[[nodiscard]] bool parse_budget(std::string_view text, SuppressionBudget* budget,
                                std::string* error);

/// Lints a set of in-memory files as one cross-file analysis: parallel
/// lex+parse, DeclIndex barrier, parallel rules, deterministic merge, then
/// suppression/budget accounting. The heart of `run()`; exposed for tests.
void lint_sources(const std::vector<SourceFile>& sources, const LayeringManifest* manifest,
                  const SuppressionBudget* budget, const RunOptions& options,
                  RunResult& result);

/// Lints one in-memory file (fixture-test convenience; no budget, default
/// options, the file is its own DeclIndex).
void lint_content(std::string_view path, std::string_view content,
                  const LayeringManifest* manifest, RunResult& result);

/// Full filesystem run: load manifest (cycle-checked) and budget, walk
/// `paths` for *.cpp/*.hpp, lint everything via lint_sources.
[[nodiscard]] RunResult run(const RunOptions& options);

[[nodiscard]] cudalign::obs::Json to_json(const RunResult& result);
[[nodiscard]] std::string to_text(const RunResult& result);

}  // namespace cudalint
