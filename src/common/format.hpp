// Human-readable formatting used by the benchmark tables.
#pragma once

#include <cstdint>
#include <string>

namespace cudalign {

/// "1.5K", "23M", "1.2G" — sequence-length style (paper's Table II headers).
[[nodiscard]] std::string format_count(std::int64_t n);

/// "12.3 KB", "4.0 GB" — byte sizes (SRA budgets).
[[nodiscard]] std::string format_bytes(std::int64_t bytes);

/// Seconds with paper-style precision: "<0.1" below 0.1 s, otherwise 3
/// significant figures.
[[nodiscard]] std::string format_seconds(double s);

/// "2.79e+10" — scientific with 3 significant digits (paper's Cells column).
[[nodiscard]] std::string format_sci(double v);

}  // namespace cudalign
