#include "common/format.hpp"

#include <array>
#include <cmath>
#include <cstdio>

namespace cudalign {

namespace {
std::string printf_str(const char* fmt, double v) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), fmt, v);
  return std::string(buf.data());
}
}  // namespace

std::string format_count(std::int64_t n) {
  const double v = static_cast<double>(n);
  if (n < 1000) return std::to_string(n);
  if (n < 1000000) return printf_str("%.0fK", v / 1e3);
  if (n < 1000000000) return printf_str("%.1fM", v / 1e6);
  return printf_str("%.2fG", v / 1e9);
}

std::string format_bytes(std::int64_t bytes) {
  const double v = static_cast<double>(bytes);
  if (bytes < 1024) return std::to_string(bytes) + " B";
  if (bytes < (1 << 20)) return printf_str("%.1f KB", v / 1024.0);
  if (bytes < (1 << 30)) return printf_str("%.1f MB", v / 1048576.0);
  return printf_str("%.2f GB", v / 1073741824.0);
}

std::string format_seconds(double s) {
  if (s < 0.1) return "<0.1";
  if (s < 10.0) return printf_str("%.2f", s);
  if (s < 100.0) return printf_str("%.1f", s);
  return printf_str("%.0f", s);
}

std::string format_sci(double v) {
  if (v == 0.0) return "0";
  return printf_str("%.2e", v);
}

}  // namespace cudalign
