// Shared infrastructure for the paper-reproduction benchmarks.
//
// Each bench binary regenerates one table or figure of the paper. Absolute
// numbers differ from the GTX 285 (this is a multi-threaded CPU reproduction
// of the execution model); sizes are scaled down ~100x from the paper's roster
// (Table II) and scale back up via CUDALIGN_BENCH_SCALE. What must reproduce
// is the *shape*: who wins, the trends across SRA sizes, the crossovers, the
// near-constant MCUPS plateau.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/format.hpp"
#include "core/pipeline.hpp"
#include "seq/generator.hpp"

namespace cudalign::bench {

/// Multiplies the default roster sizes (default 1.0; set CUDALIGN_BENCH_SCALE).
inline double bench_scale() {
  if (const char* env = std::getenv("CUDALIGN_BENCH_SCALE")) {
    const double v = std::atof(env);
    if (v > 0) return v;
  }
  return 1.0;
}

struct RosterEntry {
  Index n0, n1;        ///< Scaled sizes (S0 rows x S1 cols).
  bool related;        ///< Regime (see seq::generator.hpp).
  Index island;        ///< Planted island for unrelated pairs.
  std::uint64_t seed;
  const char* paper_label;  ///< The paper pair this entry stands in for.
};

/// The Table II stand-in roster: same relative sizes and regimes as the
/// paper's eight pairs at ~1/100 scale. Herpesvirus and the two small
/// bacterial pairs have short/local optima (unrelated regime); the rest are
/// related pairs with megabase-style long alignments.
inline std::vector<RosterEntry> roster(bool include_large = true) {
  const double s = bench_scale();
  auto sz = [&](double kbp) { return std::max<Index>(64, static_cast<Index>(kbp * 10 * s)); };
  std::vector<RosterEntry> entries = {
      {sz(162), sz(172), false, 24, 101, "162Kx172K (herpesvirus, short local hit)"},
      {sz(543), sz(536), false, 64, 102, "543Kx536K (Agrobacterium/Rhizobium)"},
      {sz(1044), sz(1073), true, 0, 103, "1044Kx1073K (Chlamydia pair)"},
      {sz(3147), sz(3283), true, 0, 104, "3147Kx3283K (Corynebacterium pair)"},
      {sz(5227), sz(5229), true, 0, 105, "5227Kx5229K (B. anthracis pair)"},
  };
  if (include_large) {
    entries.push_back({sz(7146), sz(5227), false, 96, 106, "7146Kx5227K (cross-genus, short hit)"});
  }
  return entries;
}

/// The chromosome-pair stand-in (paper's 33M x 47M human/chimp comparison).
inline RosterEntry chromosome_pair() {
  const double s = bench_scale();
  auto sz = [&](double kbp) { return std::max<Index>(256, static_cast<Index>(kbp * s)); };
  return {sz(32799), sz(46944), true, 0, 222, "32799Kx46944K (chimp22 x human21)"};
}

inline seq::SequencePair make_pair(const RosterEntry& e) {
  return e.related ? seq::make_related_pair(e.n0, e.n1, e.seed)
                   : seq::make_unrelated_pair(e.n0, e.n1, e.island, e.seed);
}

/// Engine grids scaled to this host: same structure as the paper's GTX 285
/// configuration, with strips sized so scaled-down problems still span many
/// strips (alpha*T = 64 rows instead of 256).
inline engine::GridSpec bench_grid_stage1() {
  engine::GridSpec g;
  g.blocks = 32;
  g.threads = 16;
  g.alpha = 4;
  g.min_chunk_cols = 2 * g.threads;
  return g;
}

inline engine::GridSpec bench_grid_stage23() {
  engine::GridSpec g;
  g.blocks = 8;
  g.threads = 32;
  g.alpha = 4;
  g.min_chunk_cols = 2 * g.threads;
  return g;
}

inline core::PipelineOptions bench_options(std::int64_t sra_budget = 64 << 20) {
  core::PipelineOptions o;
  o.grid_stage1 = bench_grid_stage1();
  o.grid_stage23 = bench_grid_stage23();
  o.sra_rows_budget = sra_budget;
  o.sra_cols_budget = sra_budget;
  o.max_partition_size = 16;
  // The paper's Stage 1 computes all m*n cells: Cells_1 in Tables III-VIII.
  o.block_pruning = false;
  return o;
}

inline std::string label(const RosterEntry& e) { return seq::size_label(e.n0, e.n1); }

/// MCUPS = m*n / (t * 10^6) — the paper's performance metric (§V-A).
inline double mcups(WideScore cells, double seconds) {
  return seconds <= 0 ? 0 : static_cast<double>(cells) / seconds / 1e6;
}

inline void print_header(const char* table, const char* caption) {
  std::printf("==========================================================================\n");
  std::printf("%s — %s\n", table, caption);
  std::printf("(CPU wavefront engine stand-in for the GTX 285; sizes ~1/100 of the\n");
  std::printf(" paper's, scalable via CUDALIGN_BENCH_SCALE; shapes, not absolutes.)\n");
  std::printf("==========================================================================\n");
}

}  // namespace cudalign::bench
