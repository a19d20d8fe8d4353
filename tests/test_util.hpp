// Shared helpers for the cudalign test suite.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "check/checked.hpp"
#include "common/rng.hpp"
#include "engine/grid.hpp"
#include "engine/kernel_registry.hpp"
#include "scoring/scoring.hpp"
#include "seq/generator.hpp"
#include "seq/sequence.hpp"

namespace cudalign::test {

/// Random DNA of length n (deterministic per seed).
inline seq::Sequence rand_seq(Index n, std::uint64_t seed) {
  std::string name("t");
  name += std::to_string(seed);
  return seq::random_dna(n, seed, name);
}

/// A related pair (long optimal alignment) sized for unit tests.
inline seq::SequencePair small_related(Index n0, Index n1, std::uint64_t seed) {
  return seq::make_related_pair(n0, n1, seed);
}

/// A test-sized grid: at most `blocks` column chunks of `threads` x `alpha`
/// strips, chunks as narrow as two columns per thread.
inline engine::GridSpec tiny_grid(Index blocks, Index threads, Index alpha) {
  return engine::GridSpec{blocks, threads, alpha, check::checked_mul<Index>(2, threads)};
}

/// Scoring schemes exercised by parameterized suites: the paper's defaults
/// plus corner-ish affine settings (equal first/ext = linear gaps; harsh
/// opens; mild mismatches).
inline std::vector<scoring::Scheme> test_schemes() {
  return {
      scoring::Scheme::paper_defaults(),  // +1/-3/5/2
      scoring::Scheme{1, -1, 2, 2},       // Linear gap model (G_open = 0).
      scoring::Scheme{2, -1, 7, 1},       // Expensive opens, cheap extends.
      scoring::Scheme{3, -2, 4, 3},       // Mild.
  };
}

/// Pins the process-wide kernel (the CUDALIGN_KERNEL / --kernel channel) for
/// a scope ("" = automatic) and restores the previous pin on exit, so a suite
/// run in one process keeps its environment's pin.
class ScopedKernelPin {
 public:
  explicit ScopedKernelPin(std::string_view name) : previous_(engine::kernel_override()) {
    engine::set_kernel_override(name);
  }
  ScopedKernelPin(const ScopedKernelPin&) = delete;
  ScopedKernelPin& operator=(const ScopedKernelPin&) = delete;
  ~ScopedKernelPin() { engine::set_kernel_override(previous_ != nullptr ? previous_->name : ""); }

 private:
  const engine::KernelVariant* previous_;
};

/// Pretty parameter names for TEST_P instantiations.
inline std::string scheme_name(const scoring::Scheme& s) {
  std::string name("m");
  name += std::to_string(s.match);
  name += "_mi";
  name += std::to_string(-s.mismatch);
  name += "_gf";
  name += std::to_string(s.gap_first);
  name += "_ge";
  name += std::to_string(s.gap_ext);
  return name;
}

}  // namespace cudalign::test
