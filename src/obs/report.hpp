// The versioned machine-readable run report (DESIGN.md "Observability"): a
// single JSON document capturing everything a pipeline run measured — inputs,
// options, per-stage counters, SRA traffic, partition statistics and the span
// tree. Consumers match on `schema` + `schema_version`: adding a key keeps
// the version, removing or re-typing one bumps it.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"

namespace cudalign::obs {

inline constexpr const char* kReportSchemaName = "cudalign-run-report";
inline constexpr int kReportSchemaVersion = 8;

/// Everything the report builder reads. All pointers are borrowed and may not
/// be null except `telemetry` (omitting it omits the "spans" subtree).
struct ReportContext {
  std::string s0_name;
  Index s0_length = 0;
  std::string s1_name;
  Index s1_length = 0;
  const core::PipelineOptions* options = nullptr;
  const core::PipelineResult* result = nullptr;
  const Telemetry* telemetry = nullptr;
};

/// Builds the report document. Call Telemetry::finish() first so
/// the span tree is closed and timed.
[[nodiscard]] Json build_run_report(const ReportContext& ctx);

/// Serializes `report` (2-space indent, trailing newline) to `path`.
void write_report_file(const Json& report, const std::filesystem::path& path);

/// Structural validation of a (parsed) run report: schema identity, required
/// keys, six stages, and the cross-counter consistency invariants (Stage-1
/// cells + pruned cells == m*n; Stage-1 rows flushed == special rows saved;
/// Stage-2 waves + guess hits + re-runs == Stage-2 crosspoints - 1;
/// totals == sum over stages). Returns human-readable problems, empty if the
/// document is a well-formed report of kReportSchemaVersion. Used by `cudalign report-check`.
[[nodiscard]] std::vector<std::string> validate_run_report(const Json& report);

}  // namespace cudalign::obs
