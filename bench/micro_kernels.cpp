// Micro-benchmarks (google-benchmark) of the substrate hot paths: tile
// kernel throughput across tile shapes and kernel variants, the linear-space
// sweep, the classic Myers-Miller aligner and the Stage-5 partition solver.
// These are the knobs behind the table-level numbers (alpha-blocking shape,
// grid geometry, kernel dispatch).
//
// Before handing over to google-benchmark, main() runs a self-timed sweep of
// the kernel registry — every variant on every tile archetype it can run,
// warm (one column segment) and, for the Stage-1 archetype, cold (two
// alternating segments, so every call rebuilds its profile), plus a 4 KBP x
// 4 KBP Stage-1 engine run per dispatch mode — and writes the
// results to BENCH_kernels.json (override the path with CUDALIGN_BENCH_JSON;
// set it to "off" to skip the sweep).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dp/gotoh.hpp"
#include "dp/linear.hpp"
#include "dp/myers_miller.hpp"
#include "engine/executor.hpp"
#include "engine/kernel_registry.hpp"
#include "seq/generator.hpp"

namespace {

using namespace cudalign;

const seq::Sequence& seq_a() {
  static const seq::Sequence s = seq::random_dna(1 << 16, 11, "bench_a");
  return s;
}
const seq::Sequence& seq_b() {
  static const seq::Sequence s = seq::random_dna(1 << 16, 12, "bench_b");
  return s;
}
/// A related pair (about 95% identity): the tiles its alignment diagonal
/// crosses raise their best on nearly every row, as Stage 1's unpruned
/// tiles of a related pair do.
const seq::SequencePair& related_pair() {
  static const seq::SequencePair p = seq::make_related_pair(20000, 20000, 7);
  return p;
}

// ---------------------------------------------------------------------------
// Kernel-variant sweep (self-timed; feeds BENCH_kernels.json and the
// RegisterBenchmark set below).
// ---------------------------------------------------------------------------

/// A tile archetype: the feature tuple a kernel family is specialized for,
/// and the score its incoming buses start from.
struct TileArchetype {
  const char* name;
  bool local;
  bool best;
  bool find;
  Score bus_h = 0;  ///< Added to every boundary H (and genuine gap) of the tile.
  /// Cut along the alignment diagonal of related_pair() instead of from the
  /// random sequences, so the tile's best rises on nearly every row.
  bool rising = false;
};

/// The random archetypes' best almost never rises after the first rows;
/// `local+best-past-int16` is the same random tile with its buses lifted
/// past the int16 envelope, so the int32 local kernels (striped32 and the
/// anti-diagonal v32) run it side by side on identical inputs. The `rising`
/// archetypes are the branch Stage 1's related tiles take: a best that rises
/// row after row, on int16 lanes and (biased) past them.
constexpr TileArchetype kArchetypes[] = {
    {"local", true, false, false},
    {"local+best", true, true, false},
    {"global", false, false, false},
    {"local+best-past-int16", true, true, false, 30000},
    {"local+best-rising", true, true, false, 0, true},
    {"local+best-rising-past-int16", true, true, false, 40000, true},
};

/// First row of a rising tile, half way through the related pair; its
/// columns are centred on the pair's diagonal, which then crosses the tile
/// through its middle, as it crosses a Stage-1 chunk anywhere in its width.
constexpr Index kRisingRow = 10000;

/// Stage-1 tile shapes swept: 256-row strips at chunk widths 417, 834, 1667
/// and 3334 (a 100 Kbp pair on 240, 120, 60 and 30 blocks; the default grid
/// runs 60 there, GridSpec::stage1_defaults), where the int8 striped kernels
/// run the low-score tiles (they admit a tile by its inputs and detect
/// overflow); a thin strip (64x512); and a narrow 256x64 tile whose time is
/// almost all fixed per-row cost (ns_per_row in BENCH_kernels.json shows
/// that cost on its own). The width sweep is where the default's 1664-column
/// minimum chunk comes from.
constexpr std::pair<Index, Index> kTileShapes[] = {
    {256, 417}, {256, 834}, {256, 1667}, {256, 3334}, {64, 512}, {256, 64}};

/// Owns one tile problem (Stage-1-shaped by default) with pristine buses; the
/// timed loop restores the buses each iteration so inputs never drift (the
/// horizontal bus is updated in place and would otherwise feed back).
struct TileBench {
  Index rows, cols;
  const seq::Sequence* a = &seq_a();
  const seq::Sequence* b = &seq_b();
  Index r0 = 0;
  Index c0 = 0;  ///< First column of the tile's segment of b.
  engine::Recurrence rec;
  std::vector<engine::BusCell> hbus0, vin;
  std::vector<engine::BusCell> hbus, vout;
  std::optional<Score> find_value;
  bool track_best = false;

  TileBench(const TileArchetype& arch, Index rows_, Index cols_) : rows(rows_), cols(cols_) {
    const auto scheme = scoring::Scheme::paper_defaults();
    rec = arch.local ? engine::Recurrence::local(scheme)
                     : engine::Recurrence::global_start(dp::CellState::kH, scheme);
    hbus0.resize(static_cast<std::size_t>(cols) + 1);
    vin.resize(static_cast<std::size_t>(rows) + 1);
    vout.resize(static_cast<std::size_t>(rows) + 1);
    for (Index j = 0; j <= cols; ++j) hbus0[static_cast<std::size_t>(j)] = rec.top_boundary(j);
    for (Index i = 0; i <= rows; ++i) vin[static_cast<std::size_t>(i)] = rec.left_boundary(i);
    for (auto* bus : {&hbus0, &vin}) {
      for (engine::BusCell& cell : *bus) {
        cell.h += arch.bus_h;
        if (!is_neg_inf(cell.gap)) cell.gap += arch.bus_h;
      }
    }
    hbus = hbus0;
    if (arch.rising) {
      a = &related_pair().s0;
      b = &related_pair().s1;
      r0 = kRisingRow;
      c0 = kRisingRow + rows / 2 - cols / 2;
    }
    if (arch.find) find_value = kNegInf / 8;  // Never hit: times the full scan.
    track_best = arch.best;
  }

  engine::TileJob job() {
    engine::TileJob j;
    j.r0 = r0;
    j.r1 = r0 + rows;
    j.c0 = c0;
    j.c1 = c0 + cols;
    j.a = a->bases();
    j.b = b->bases();
    j.recurrence = &rec;
    j.hbus = hbus;
    j.vbus_in = vin;
    j.vbus_out = vout;
    j.track_best = track_best;
    j.find_value = find_value;
    return j;
  }

  void reset_bus() { hbus = hbus0; }

  /// Moves the tile to the other of two column segments, so the next call
  /// finds its striped profile cold, as a Stage-1 tile does whenever its
  /// participant last ran another column chunk.
  void switch_segment() { c0 = c0 == 0 ? cols : 0; }
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// One variant's throughput on one archetype: cells per second and the
/// time per tile row.
struct TileTiming {
  double gcups = 0;
  double ns_per_row = 0;
};

/// Times `variant` pinned through run_tile; nullopt when a narrow variant
/// overflows the tile and a costlier one publishes it. `cold` alternates
/// two column segments between calls, so every call pays the per-tile
/// set-up (profile rebuild) that the warm rows amortize.
std::optional<TileTiming> time_variant(const engine::KernelVariant& variant, TileBench& bench,
                                       bool cold) {
  engine::TileScratch scratch;
  bench.reset_bus();
  // Warm-up (scratch allocation) and the check that the variant publishes,
  // on both segments when cold.
  for (int k = 0; k < (cold ? 2 : 1); ++k) {
    if (cold) bench.switch_segment();
    bench.reset_bus();
    if (engine::run_tile(bench.job(), scratch, &variant).kernel != variant.id) return std::nullopt;
  }
  // The fastest of three 0.15 s windows: one window alone reads up to 15%
  // apart between runs on a shared host.
  TileTiming fastest;
  for (int window = 0; window < 3; ++window) {
    long iters = 0;
    const auto t0 = std::chrono::steady_clock::now();
    double elapsed = 0;
    do {
      if (cold) bench.switch_segment();
      bench.reset_bus();
      benchmark::DoNotOptimize(engine::run_tile(bench.job(), scratch, &variant));
      ++iters;
      elapsed = seconds_since(t0);
    } while (elapsed < 0.15);
    const double rows = static_cast<double>(bench.rows) * static_cast<double>(iters);
    const double gcups = rows * static_cast<double>(bench.cols) / elapsed / 1e9;
    if (gcups > fastest.gcups) fastest = TileTiming{gcups, elapsed / rows * 1e9};
  }
  return fastest;
}

struct VariantSample {
  std::string archetype;
  std::string kernel;
  Index rows = 0, cols = 0;
  bool cold = false;  ///< Profile rebuilt on every call (see time_variant).
  TileTiming timing;
};

struct EngineSample {
  std::string kernel;  ///< Override name ("" = automatic dispatch).
  double gcups = 0;
  std::string usage;
};

/// One Stage-1 run of n x n with the given kernel override pinned.
EngineSample time_engine_gcups(const std::string& kernel, Index n) {
  engine::ProblemSpec spec;
  spec.a = seq_a().view(0, n);
  spec.b = seq_b().view(0, n);
  spec.grid = engine::GridSpec{8, 64, 4, 128};  // Strip height 256, 512-wide chunks.
  spec.recurrence = engine::Recurrence::local(scoring::Scheme::paper_defaults());
  const engine::KernelVariant* previous_pin = engine::kernel_override();
  engine::set_kernel_override(kernel);
  engine::RunResult last;
  long iters = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0;
  do {
    last = engine::run_wavefront(spec, engine::Hooks{});
    ++iters;
    elapsed = seconds_since(t0);
  } while (elapsed < 0.5);
  engine::set_kernel_override(previous_pin != nullptr ? previous_pin->name : "");
  EngineSample sample;
  sample.kernel = kernel;
  sample.gcups = static_cast<double>(n) * static_cast<double>(n) *
                 static_cast<double>(iters) / elapsed / 1e9;
  sample.usage = engine::kernel_usage_summary(last.stats.kernels);
  return sample;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

/// Runs the sweep and writes the machine-readable report, including the
/// speedup of the automatically dispatched Stage-1 run over the pinned
/// legacy kernel (the dispatch layer's headline number).
void run_kernel_sweep(const std::string& path) {
  std::vector<VariantSample> tile_samples;
  for (const auto& [rows, cols] : kTileShapes) {
    for (const TileArchetype& arch : kArchetypes) {
      TileBench bench(arch, rows, cols);
      // The Stage-1 archetype also runs cold: warm minus cold is the
      // per-tile set-up a real run pays on a column-chunk switch.
      const bool stage1 = std::string_view(arch.name) == "local+best";
      for (const engine::KernelVariant& variant : engine::kernel_registry()) {
        const engine::TileJob job = bench.job();
        if (!engine::admits(variant, job, engine::scan_bus_inputs(job))) continue;
        for (const bool cold : {false, true}) {
          if (cold && !stage1) continue;
          const std::optional<TileTiming> timing = time_variant(variant, bench, cold);
          if (!timing) continue;
          VariantSample s;
          s.archetype = arch.name;
          s.kernel = variant.name;
          s.rows = rows;
          s.cols = cols;
          s.cold = cold;
          s.timing = *timing;
          tile_samples.push_back(s);
          std::fprintf(stderr,
                       "[kernel-sweep] %4ldx%-4ld %-28s %-24s %-4s %7.3f GCUPS %8.1f ns/row\n",
                       long(rows), long(cols), s.archetype.c_str(), s.kernel.c_str(),
                       cold ? "cold" : "warm", s.timing.gcups, s.timing.ns_per_row);
        }
      }
    }
  }

  const Index n = 4096;
  std::vector<EngineSample> engine_samples;
  for (const std::string& kernel : {std::string("legacy"), std::string("")}) {
    engine_samples.push_back(time_engine_gcups(kernel, n));
    const EngineSample& s = engine_samples.back();
    std::fprintf(stderr, "[kernel-sweep] stage1 %ux%u kernel=%-8s %7.3f GCUPS (%s)\n",
                 unsigned(n), unsigned(n), s.kernel.empty() ? "auto" : s.kernel.c_str(),
                 s.gcups, s.usage.c_str());
  }
  const double speedup = engine_samples[1].gcups / engine_samples[0].gcups;
  std::fprintf(stderr, "[kernel-sweep] dispatch speedup vs legacy: %.2fx\n", speedup);

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "[kernel-sweep] cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"variants\": [\n";
  for (std::size_t i = 0; i < tile_samples.size(); ++i) {
    const VariantSample& s = tile_samples[i];
    out << "    {\"job\": \"" << json_escape(s.archetype) << "\", \"kernel\": \""
        << json_escape(s.kernel) << "\", \"rows\": " << s.rows << ", \"cols\": " << s.cols
        << ", \"profile\": \"" << (s.cold ? "cold" : "warm") << "\", \"gcups\": " << s.timing.gcups
        << ", \"ns_per_row\": " << s.timing.ns_per_row << "}"
        << (i + 1 < tile_samples.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"stage1\": {\"n\": " << n << ", \"runs\": [\n";
  for (std::size_t i = 0; i < engine_samples.size(); ++i) {
    const EngineSample& s = engine_samples[i];
    out << "    {\"kernel\": \"" << json_escape(s.kernel) << "\", \"gcups\": " << s.gcups
        << ", \"usage\": \"" << json_escape(s.usage) << "\"}"
        << (i + 1 < engine_samples.size() ? "," : "") << "\n";
  }
  out << "  ], \"speedup_vs_legacy\": " << speedup << "}\n}\n";
  std::fprintf(stderr, "[kernel-sweep] wrote %s\n", path.c_str());
}

// ---------------------------------------------------------------------------
// google-benchmark registrations.
// ---------------------------------------------------------------------------

void BM_TileKernel(benchmark::State& state) {
  const Index rows = state.range(0);
  const Index cols = state.range(1);
  TileBench bench({"local+best", true, true, false, false}, rows, cols);
  engine::TileScratch scratch;
  for (auto _ : state) {
    bench.reset_bus();
    benchmark::DoNotOptimize(engine::run_tile(bench.job(), scratch));
  }
  state.counters["MCUPS"] = benchmark::Counter(
      static_cast<double>(rows) * static_cast<double>(cols) *
          static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TileKernel)->Args({64, 1024})->Args({256, 1024})->Args({64, 8192})->Args({512, 512});

/// Side-by-side per-variant runs on the Stage-1 tile shape, registered
/// dynamically so the benchmark list always matches the registry.
void register_variant_benchmarks() {
  for (const engine::KernelVariant& variant : engine::kernel_registry()) {
    for (const auto& [rows, cols] : kTileShapes) {
      for (const TileArchetype& arch : kArchetypes) {
        // Probe eligibility once with a throwaway bench.
        TileBench probe(arch, rows, cols);
        const engine::TileJob job = probe.job();
        if (!engine::admits(variant, job, engine::scan_bus_inputs(job))) continue;
        const std::string name = std::string("BM_KernelVariant/") + variant.name + "/" +
                                 arch.name + "/" + std::to_string(rows) + "x" +
                                 std::to_string(cols);
        const TileArchetype arch_copy = arch;
        const engine::KernelVariant* v = &variant;
        const Index r = rows, c = cols;
        benchmark::RegisterBenchmark(name.c_str(), [v, arch_copy, r, c](benchmark::State& state) {
          TileBench bench(arch_copy, r, c);
          engine::TileScratch scratch;
          for (auto _ : state) {
            bench.reset_bus();
            benchmark::DoNotOptimize(engine::run_tile(bench.job(), scratch, v));
          }
          state.counters["MCUPS"] = benchmark::Counter(
              static_cast<double>(r) * static_cast<double>(c) *
                  static_cast<double>(state.iterations()) / 1e6,
              benchmark::Counter::kIsRate);
        });
        break;  // One archetype per variant and shape keeps the default run short.
      }
    }
  }
}

void BM_LinearSweep(benchmark::State& state) {
  const Index n = state.range(0);
  const auto a = seq_a().view(0, n);
  const auto b = seq_b().view(0, n);
  const auto scheme = scoring::Scheme::paper_defaults();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::linear_local_best(a, b, scheme));
  }
  state.counters["MCUPS"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(n) *
          static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LinearSweep)->Arg(1024)->Arg(4096);

void BM_WavefrontEngine(benchmark::State& state) {
  const Index n = state.range(0);
  engine::ProblemSpec spec;
  spec.a = seq_a().view(0, n);
  spec.b = seq_b().view(0, n);
  spec.grid = engine::GridSpec{32, 16, 4, 32};
  spec.recurrence = engine::Recurrence::local(scoring::Scheme::paper_defaults());
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine::run_wavefront(spec, engine::Hooks{}));
  }
  state.counters["MCUPS"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(n) *
          static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WavefrontEngine)->Arg(4096)->Arg(16384);

void BM_MyersMiller(benchmark::State& state) {
  const Index n = state.range(0);
  const auto pair = seq::make_related_pair(n, n, 77);
  const auto scheme = scoring::Scheme::paper_defaults();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dp::myers_miller(pair.s0.bases(), pair.s1.bases(), scheme));
  }
}
BENCHMARK(BM_MyersMiller)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_Stage5Partition(benchmark::State& state) {
  // The constant-size partition solve that Stage 5 repeats O(m+n) times.
  const auto pair = seq::make_related_pair(16, 16, 99);
  const auto scheme = scoring::Scheme::paper_defaults();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp::align_global(pair.s0.bases(), pair.s1.bases(), scheme));
  }
}
BENCHMARK(BM_Stage5Partition);

}  // namespace

int main(int argc, char** argv) {
  const char* json_env = std::getenv("CUDALIGN_BENCH_JSON");
  const std::string json_path = json_env != nullptr ? json_env : "BENCH_kernels.json";
  if (json_path != "off") run_kernel_sweep(json_path);
  register_variant_benchmarks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
