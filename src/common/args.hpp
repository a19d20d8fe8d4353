// Minimal dependency-free command-line flag parser (used by the cudalign CLI).
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace cudalign::common {

class Args {
 public:
  /// `switches` names the value-less flags (read only through has()): a
  /// switch never takes the next token as its value, so "--stats a.fa b.fa"
  /// keeps both positionals. Any other "--flag" without "=" takes the next
  /// token unless that token starts with "--".
  Args(int argc, char** argv, int first, const std::vector<std::string>& switches = {}) {
    for (int k = first; k < argc; ++k) {
      std::string arg = argv[k];
      if (arg.rfind("--", 0) == 0) {
        const auto eq = arg.find('=');
        const bool is_switch =
            std::find(switches.begin(), switches.end(), arg.substr(2)) != switches.end();
        if (eq != std::string::npos) {
          flags_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
        } else if (!is_switch && k + 1 < argc && std::string(argv[k + 1]).rfind("--", 0) != 0) {
          flags_[arg.substr(2)] = argv[++k];
        } else {
          flags_[arg.substr(2)] = "";
        }
      } else {
        positional_.push_back(std::move(arg));
      }
    }
  }

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  [[nodiscard]] bool has(const std::string& name) const { return flags_.contains(name); }

  [[nodiscard]] std::string str(const std::string& name, const std::string& fallback = "") const {
    const auto it = flags_.find(name);
    return it == flags_.end() ? fallback : it->second;
  }

  [[nodiscard]] std::int64_t num(const std::string& name, std::int64_t fallback) const {
    const auto it = flags_.find(name);
    if (it == flags_.end()) return fallback;
    const std::string& v = it->second;
    // Only the conversion itself may throw the generic "expects a number";
    // suffix problems below get their own precise error.
    std::size_t pos = 0;
    std::int64_t value = 0;
    try {
      value = std::stoll(v, &pos);
    } catch (const std::exception&) {
      throw Error("flag --" + name + " expects a number, got '" + v + "'");
    }
    if (pos == v.size()) return value;
    // Accept size suffixes: K, M, G — as the final character only ("4KB" is
    // a typo, not 4096).
    std::int64_t scale = 0;
    switch (v[pos]) {
      case 'k': case 'K': scale = std::int64_t{1} << 10; break;
      case 'm': case 'M': scale = std::int64_t{1} << 20; break;
      case 'g': case 'G': scale = std::int64_t{1} << 30; break;
      default:
        throw Error("bad numeric suffix in --" + name + "=" + v);
    }
    CUDALIGN_CHECK(pos + 1 == v.size(),
                   "trailing characters after numeric suffix in --" + name + "=" + v);
    std::int64_t scaled = 0;
    const bool overflow = __builtin_mul_overflow(value, scale, &scaled);
    CUDALIGN_CHECK(!overflow, "flag --" + name + "=" + v +
                                  " is out of range (must fit a signed 64-bit integer)");
    return scaled;
  }

  /// Throws if any flag was not consumed by `known` (typo protection).
  void check_known(const std::vector<std::string>& known) const {
    for (const auto& [name, value] : flags_) {
      bool ok = false;
      for (const auto& k : known) ok = ok || k == name;
      CUDALIGN_CHECK(ok, "unknown flag --" + name);
    }
  }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace cudalign::common
