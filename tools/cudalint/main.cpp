// cudalint CLI — the repo-native static analyzer.
//
//   cudalint [--root DIR] [--manifest FILE] [--budget FILE] [--disable R[,R]]
//            [--max-suppressions N] [--jobs N] [--json] [--github] [paths...]
//   cudalint --list-rules
//
// Paths (default: src) are resolved relative to --root (default: .) and
// scanned recursively for *.cpp / *.hpp / *.h.
//
//   --disable R[,R]       skip rules entirely (repeatable); markers naming a
//                         disabled rule are excused, not unused. Per-tree
//                         ctest configs are built from this flag.
//   --budget FILE         suppression budget (relative to --root); trees over
//                         their allow-marker cap fail the run.
//   --max-suppressions N  global allow-marker cap across the whole scan.
//   --jobs N              analysis workers (default: hardware concurrency).
//   --github              also print `::error file=...` GitHub annotations so
//                         findings surface inline on PRs.
//
// Exit codes: 0 clean, 1 diagnostics found, 2 usage or configuration error
// (unreadable manifest/budget, manifest cycle, bad path, unknown rule).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "cudalint/driver.hpp"

namespace {

void print_usage() {
  std::fputs(
      "usage: cudalint [--root DIR] [--manifest FILE] [--budget FILE]\n"
      "                [--disable RULE[,RULE]] [--max-suppressions N] [--jobs N]\n"
      "                [--json] [--github] [paths...]\n"
      "       cudalint --list-rules\n",
      stderr);
}

/// `%`, CR and LF have meaning inside GitHub workflow commands; escape them
/// so a multi-line message cannot smuggle in a second command.
[[nodiscard]] std::string github_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '%': out += "%25"; break;
      case '\r': out += "%0D"; break;
      case '\n': out += "%0A"; break;
      default: out += c;
    }
  }
  return out;
}

void print_github_annotations(const cudalint::RunResult& result) {
  for (const std::string& e : result.config_errors) {
    std::fprintf(stdout, "::error::cudalint: %s\n", github_escape(e).c_str());
  }
  for (const cudalint::Diagnostic& d : result.diagnostics) {
    std::fprintf(stdout, "::error file=%s,line=%d::%s: %s\n", github_escape(d.file).c_str(),
                 d.line, github_escape(d.rule).c_str(), github_escape(d.message).c_str());
  }
}

void split_rules(const std::string& list, std::vector<std::string>* out) {
  std::size_t begin = 0;
  while (begin <= list.size()) {
    std::size_t comma = list.find(',', begin);
    if (comma == std::string::npos) comma = list.size();
    if (comma > begin) out->push_back(list.substr(begin, comma - begin));
    begin = comma + 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  cudalint::RunOptions options;
  bool json = false;
  bool github = false;
  bool list_rules = false;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto value = [&](const char* flag) -> const std::string* {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "cudalint: %s needs a value\n", flag);
        return nullptr;
      }
      return &args[++i];
    };
    if (arg == "--json") {
      json = true;
    } else if (arg == "--github") {
      github = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--root") {
      const std::string* v = value("--root");
      if (v == nullptr) return 2;
      options.root = *v;
    } else if (arg == "--manifest") {
      const std::string* v = value("--manifest");
      if (v == nullptr) return 2;
      options.manifest_path = *v;
    } else if (arg == "--budget") {
      const std::string* v = value("--budget");
      if (v == nullptr) return 2;
      options.budget_path = *v;
    } else if (arg == "--disable") {
      const std::string* v = value("--disable");
      if (v == nullptr) return 2;
      split_rules(*v, &options.disabled_rules);
    } else if (arg == "--max-suppressions") {
      const std::string* v = value("--max-suppressions");
      if (v == nullptr) return 2;
      options.max_suppressions = std::atoi(v->c_str());
    } else if (arg == "--jobs") {
      const std::string* v = value("--jobs");
      if (v == nullptr) return 2;
      options.jobs = std::atoi(v->c_str());
    } else if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (arg.starts_with("-")) {
      std::fprintf(stderr, "cudalint: unknown flag %s\n", arg.c_str());
      print_usage();
      return 2;
    } else {
      options.paths.push_back(arg);
    }
  }

  if (list_rules) {
    for (const cudalint::RuleInfo& rule : cudalint::rule_catalogue()) {
      std::fprintf(stdout, "%-24s %s\n", std::string(rule.name).c_str(),
                   std::string(rule.description).c_str());
    }
    return 0;
  }

  const cudalint::RunResult result = cudalint::run(options);
  if (github) print_github_annotations(result);
  if (json) {
    std::fputs((cudalint::to_json(result).dump(2) + "\n").c_str(), stdout);
  } else {
    std::fputs(cudalint::to_text(result).c_str(), stdout);
  }
  if (!result.config_errors.empty()) return 2;
  return result.diagnostics.empty() ? 0 : 1;
}
