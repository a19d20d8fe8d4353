#include "check/contracts.hpp"

namespace cudalign::check::detail {

void fail(const char* kind, const char* cond, const char* file, int line,
          const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: " << cond << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}

}  // namespace cudalign::check::detail
