#!/usr/bin/env bash
# Tier-1 verification, run the way CI does:
#   0. Lint: cudalint (the repo-native analyzer, built on demand by
#      tools/lint.sh) plus clang-tidy and clang-format --check (the clang
#      stages skip with a notice when the toolchain is absent). Formatting
#      drift fails CI alongside lint. cudalint also runs as a ctest test in
#      every suite below, so a lint violation is a test failure too.
#   1. Release build with the strict zero-warning wall (-DCUDALIGN_STRICT=ON:
#      -Wall -Wextra -Wconversion -Wshadow -Werror) + full ctest. The SIMD
#      backend is a matrix axis: fast mode reruns the kernel-equivalence,
#      grid-fit, tile-shape and Stage-4 tile suites under every supported ISA
#      (the chunk width sets each ISA's striped segment length); full mode
#      reruns the ENTIRE ctest suite under every ISA the runner supports
#      (generic, sse2, avx2, and avx512 on capable CPUs).
#      Then the run-report smoke: a small align's report must pass
#      report-check, and a second run with --audit-bus must audit clean,
#      validate, and write a binary alignment identical to the first; a
#      third with --no-prune must too, reporting 0 pruned cells where the
#      pruned default reports some.
#   2. Bench + regression gate: bench_pipeline --fast, then tools/bench_gate
#      compares it against bench/baseline.json (tolerance
#      ${CUDALIGN_BENCH_TOLERANCE:-15} percent; the gate's own self-test runs
#      in both modes, the baseline comparison only in full mode — timing on a
#      busy dev box is too noisy for the pre-push loop). Full mode also runs
#      the micro_kernels kernel sweep into ci-artifacts/BENCH_kernels.json
#      (an artifact, no gate). Both modes then run the repo benchmark's smoke
#      check (e2ebench/run.sh --smoke) and its related workload at seed 631,
#      which must report a correct alignment.
#   3. Debug build with AddressSanitizer + UndefinedBehaviorSanitizer + full
#      ctest (contract DCHECKs compiled in)
#   4. ThreadSanitizer build + full ctest, suppressions in tsan.supp (kept
#      empty: a race in cudalign code is a bug, not a suppression), then the
#      scheduler suites (TileGraph, Dataflow*, EngineFuzz), block pruning's
#      lagged-best ring (BlockPruning) and Stage 2's speculative waves
#      (Stage2) repeated 20 times
#
# Every suite's configure step is followed by a stale-cache check: a build
# tree left over from a differently-configured run (say, sanitizer flags
# lingering in CMAKE_CXX_FLAGS of build-ci-release) fails the run instead of
# silently testing the wrong binaries. ccache is used automatically when
# installed. A per-stage wall-clock table (plus the run's ccache hit rate)
# prints on exit, pass or fail. Bench JSON and a sample run report land in
# ci-artifacts/ for CI to upload; every ctest run carries a global --timeout
# backstop on top of the per-test TIMEOUT properties.
#
# Usage: ./ci.sh [--fast] [jobs]   (jobs defaults to nproc)
#   --fast  lint + Release suite + gate self-test + e2ebench smoke only: the
#           quick pre-push loop.
set -euo pipefail
cd "$(dirname "$0")"

FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
  shift
fi
JOBS="${1:-$(nproc)}"

# Every ctest invocation runs with a global timeout backstop (on top of the
# per-test TIMEOUT properties in tests/CMakeLists.txt): a deadlocked pool or a
# stuck writer drain fails the stage instead of hanging the whole run.
CTEST_TIMEOUT="${CUDALIGN_CTEST_TIMEOUT:-600}"

# ccache makes the three build trees nearly free after the first one; CI
# restores its cache directory between runs. The finish() table reports the
# run's own hit rate (delta against the stats at startup).
LAUNCHER=()
CCACHE=0
CCACHE_HITS0=0
CCACHE_MISSES0=0
ccache_counts() {
  # "hits misses" from the machine-readable stats; zeros when unavailable.
  ccache --print-stats 2>/dev/null | awk '
    /^direct_cache_hit|^preprocessed_cache_hit/ { hits += $2 }
    /^cache_miss/ { misses += $2 }
    END { printf "%d %d", hits, misses }'
}
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
  CCACHE=1
  read -r CCACHE_HITS0 CCACHE_MISSES0 <<<"$(ccache_counts)"
  echo "ci.sh: ccache enabled"
fi

# Wall-clock accounting: stage() closes the previous stage and opens the
# next; the EXIT trap prints the table whether the run passed or died.
STAGE_NAMES=()
STAGE_SECONDS=()
CURRENT_STAGE=""
STAGE_T0=0
stage_end() {
  if [[ -n "$CURRENT_STAGE" ]]; then
    STAGE_NAMES+=("$CURRENT_STAGE")
    STAGE_SECONDS+=($((SECONDS - STAGE_T0)))
    CURRENT_STAGE=""
  fi
}
stage() {
  stage_end
  CURRENT_STAGE="$1"
  STAGE_T0=$SECONDS
  echo "=== [$1] ==="
}

OBS_DIR="$(mktemp -d)"
# Artifacts CI uploads (bench JSON, a sample run report) land here — a
# checked-out, gitignored directory that outlives the run, unlike OBS_DIR.
ART_DIR="ci-artifacts"
rm -rf "$ART_DIR"
mkdir -p "$ART_DIR"
finish() {
  local status=$?
  stage_end
  rm -rf "$OBS_DIR"
  if ((${#STAGE_NAMES[@]} > 0)); then
    echo
    echo "ci.sh stage timings:"
    local i
    for i in "${!STAGE_NAMES[@]}"; do
      printf '  %-32s %5ss\n' "${STAGE_NAMES[$i]}" "${STAGE_SECONDS[$i]}"
    done
    printf '  %-32s %5ss\n' "total" "$SECONDS"
    if [[ "$CCACHE" -eq 1 ]]; then
      local hits misses dh dm
      read -r hits misses <<<"$(ccache_counts)"
      dh=$((hits - CCACHE_HITS0))
      dm=$((misses - CCACHE_MISSES0))
      if ((dh + dm > 0)); then
        printf '  %-32s %4d%% (%d hits, %d misses)\n' \
          "ccache hit rate" $((100 * dh / (dh + dm))) "$dh" "$dm"
      else
        printf '  %-32s %s\n' "ccache hit rate" "n/a (no compilations)"
      fi
    fi
  fi
  if [[ "$status" -ne 0 ]]; then
    echo "ci.sh: FAILED (exit $status)" >&2
  fi
}
trap finish EXIT

# Stale-cache guard. cmake re-applies -D options on reconfigure, but options
# a suite does NOT pass survive from whatever configured the tree last — the
# classic way to "pass" Release tests against sanitizer objects. Each suite
# states every cache variable it depends on and the tree must agree exactly.
cache_get() {
  sed -n "s/^$2:[A-Z]*=//p" "$1/CMakeCache.txt" | head -n 1
}
check_cache() {
  local dir="$1" kv key want got
  shift
  for kv in "$@"; do
    key="${kv%%=*}"
    want="${kv#*=}"
    got="$(cache_get "$dir" "$key")"
    if [[ "$got" != "$want" ]]; then
      echo "ci.sh: stale build cache in $dir: $key is '$got', expected '$want'" >&2
      echo "ci.sh: remove $dir and re-run" >&2
      exit 1
    fi
  done
}

run_suite() {
  local name="$1" dir="$2"
  shift 2
  local -a expect=()
  while [[ $# -gt 0 && "$1" != "--" ]]; do
    expect+=("$1")
    shift
  done
  shift # the --
  stage "$name: configure"
  cmake -B "$dir" -S . "${LAUNCHER[@]}" "$@" >/dev/null
  check_cache "$dir" "${expect[@]}"
  stage "$name: build"
  cmake --build "$dir" -j "$JOBS" >/dev/null
}

# 0. Lint wall: runs first so style/contract violations fail fast. lint.sh
# builds the cudalint binary on demand (reusing a configured build tree when
# one exists) and runs it over src/; formatting drift is part of the stage.
stage "lint: cudalint + clang-tidy"
./tools/lint.sh
stage "lint: clang-format check"
./tools/format.sh --check

# 1. Release: the performance configuration users build, with warnings as
# errors — the tree must stay zero-warning under -Wconversion -Wshadow.
run_suite release build-ci-release \
  CMAKE_BUILD_TYPE=Release CUDALIGN_STRICT=ON CMAKE_CXX_FLAGS= -- \
  -DCMAKE_BUILD_TYPE=Release -DCUDALIGN_STRICT=ON -DCMAKE_CXX_FLAGS=
stage "release: ctest"
(cd build-ci-release && ctest --output-on-failure -j "$JOBS" --timeout "$CTEST_TIMEOUT")

# The striped kernels pick their SIMD backend at runtime, so the default
# ctest pass only proves correctness for the ISA the runner auto-selects
# (AVX2 on modern hosts). The ISA is a real matrix axis:
#   fast mode  — rerun just the kernel equivalence/dispatch suites, the
#                narrow-overflow suite, the sentinel-sweep suite, the
#                engine equivalence and last-column suites, the
#                Stage-2, Stage-3, row-crossing and Stage-4 suites
#                (striped32-global with and without the probe), the pruning
#                suites (goal pruning decides from scan_bus_inputs, which
#                has generic, AVX2 and AVX-512 builds) and the CRC-32 suite
#                under every supported backend (the cheap pre-push proof;
#                CUDALIGN_SIMD=generic also moves the CRC onto its
#                slice-by-8 fallback);
#   full mode  — rerun the ENTIRE ctest suite under every ISA the runner
#                supports, so pipeline/checkpoint/engine behavior (not only
#                kernel byte-identity) is proven per backend.
# Forcing an ISA the build or CPU cannot honor fails fast by design, so the
# matrix only lists supported tiers (avx512 joins when the CPU has avx512bw,
# mirroring the dispatcher's own gate).
isa_matrix() {
  local isas="generic"
  case "$(uname -m)" in
    x86_64 | amd64)
      isas="$isas sse2"
      grep -qw avx2 /proc/cpuinfo 2>/dev/null && isas="$isas avx2"
      grep -qw avx512bw /proc/cpuinfo 2>/dev/null && isas="$isas avx512"
      ;;
  esac
  echo "$isas"
}
if [[ "$FAST" -eq 1 ]]; then
  stage "release: kernel equivalence and admission, sentinel sweeps, engine equivalence and last column, grid fit and tile shapes, Stages 2-4, row crossing and CRC, block, seeded and goal pruning, SRA row files, forced ISAs"
  for isa in $(isa_matrix); do
    CUDALIGN_SIMD="$isa" build-ci-release/tests/cudalign_tests \
      --gtest_filter='KernelEquivalence.*:KernelDispatch.*:Admission.*:LaneEnvelope.*:NarrowOverflow.*:Striped32Global.*:Striped32Local.*:Int16EnvelopeCrossing.*:EngineSentinel.*:EngineEquivalence.*:Engine.*:EngineLastColumn.*:Grid.*:TileShapeEquivalence.*:Stage2.*:CrossRow.*:Stage4Tiles.*:Crc32.*:BlockPruning.*:SeededPruning.*:GoalPruning.*:Stage3.*:*PipelineFuzz.GoalPruning*:Sra.*:SraDurability.*:AsyncWriter.*' \
      --gtest_brief=1
  done
else
  for isa in $(isa_matrix); do
    stage "release: full ctest, CUDALIGN_SIMD=$isa"
    (cd build-ci-release &&
      CUDALIGN_SIMD="$isa" ctest --output-on-failure -j "$JOBS" --timeout "$CTEST_TIMEOUT")
  done
fi

# Observability smoke: a tiny end-to-end run must produce a run report that
# the CLI's own validator accepts (schema + internal consistency). The report
# is kept as a CI artifact: a diffable sample of the schema every PR ships.
stage "release: run-report smoke"
CLI=build-ci-release/tools/cudalign
"$CLI" generate "$OBS_DIR/a.fasta" --length 4000 --seed 5 >/dev/null
"$CLI" generate "$OBS_DIR/b.fasta" --mutate-of "$OBS_DIR/a.fasta" --seed 6 >/dev/null
"$CLI" align "$OBS_DIR/a.fasta" "$OBS_DIR/b.fasta" --out "$OBS_DIR/aln.bin" \
  --report "$ART_DIR/run-report-sample.json" >/dev/null
"$CLI" report-check "$ART_DIR/run-report-sample.json"
grep -q '"peak_rss_bytes"' "$ART_DIR/run-report-sample.json"
# The same pair with every bus hand-off audited: the audit must pass, its
# report must validate too, and its binary alignment must match the default
# run byte for byte.
"$CLI" align "$OBS_DIR/a.fasta" "$OBS_DIR/b.fasta" --audit-bus \
  --out "$OBS_DIR/aln-audit.bin" --report "$OBS_DIR/run-report-audit.json" >/dev/null
"$CLI" report-check "$OBS_DIR/run-report-audit.json"
cmp "$OBS_DIR/aln.bin" "$OBS_DIR/aln-audit.bin"
# Stage 1 prunes by default. The same pair with --no-prune computes every
# cell: its report must show nothing pruned and validate, and its binary
# alignment must match the pruned default run's byte for byte, which must
# have pruned something. Every stage entry carries pruned_cells and Stages
# 2-6 never prune, so both checks read Stage 1's entry only.
"$CLI" align "$OBS_DIR/a.fasta" "$OBS_DIR/b.fasta" --no-prune \
  --out "$OBS_DIR/aln-noprune.bin" --report "$OBS_DIR/run-report-noprune.json" >/dev/null
"$CLI" report-check "$OBS_DIR/run-report-noprune.json"
cmp "$OBS_DIR/aln.bin" "$OBS_DIR/aln-noprune.bin"
stage1_entry() { sed -n '/"stage": 1,/,/"stage": 2,/p' "$1"; }
stage1_entry "$OBS_DIR/run-report-noprune.json" | grep -Eq '"pruned_cells": 0,?$'
stage1_entry "$ART_DIR/run-report-sample.json" | grep -Eq '"pruned_cells": [1-9][0-9]*,?$'

# 2. Bench + regression gate. The self-test exercises the comparator with a
# synthetic 30% slowdown and must detect it; the real comparison pits the
# fresh numbers against the checked-in baseline. Bench JSON lands in ART_DIR
# so CI uploads it next to the cudalint report.
stage "bench: bench_pipeline --fast"
build-ci-release/bench/bench_pipeline --fast --out "$ART_DIR/BENCH_pipeline.json" >/dev/null
test -s "$ART_DIR/BENCH_pipeline.json"
stage "bench: gate"
build-ci-release/tools/bench_gate --self-test
if [[ "$FAST" -eq 1 ]]; then
  echo "ci.sh: fast mode — baseline comparison skipped (runs in full CI)"
else
  # Two more samples: the gate scores each benchmark by its best run
  # (best-of-3), since a single sample of the tiny --fast problem can read
  # far below its median on a loaded machine.
  build-ci-release/bench/bench_pipeline --fast --out "$ART_DIR/BENCH_pipeline.2.json" >/dev/null
  build-ci-release/bench/bench_pipeline --fast --out "$ART_DIR/BENCH_pipeline.3.json" >/dev/null
  build-ci-release/tools/bench_gate "$ART_DIR"/BENCH_pipeline*.json bench/baseline.json \
    --tolerance "${CUDALIGN_BENCH_TOLERANCE:-15}"
  # The self-timed kernel sweep (GCUPS and ns per row for every variant on
  # every tile shape), kept as an artifact so each change carries its
  # per-shape kernel numbers. No gate: single-thread tile timings drift too
  # much on shared hosts to fail a build on.
  stage "bench: micro_kernels sweep (artifact)"
  CUDALIGN_BENCH_JSON="$ART_DIR/BENCH_kernels.json" build-ci-release/bench/micro_kernels \
    --benchmark_filter='^$' >/dev/null
  test -s "$ART_DIR/BENCH_kernels.json"
fi
# The repo benchmark (e2ebench/, BENCHMARK.json) builds from src/ in its own
# tree (build-bench/); its smoke run fails CI when a src/ change breaks that
# build or the benchmark's result checks.
stage "bench: e2ebench smoke"
e2ebench/run.sh --smoke
# Seed 631 of the related workload once made Stage 3 take crosspoints from
# two different optimal paths, and Stage 4 aborted: its run must be correct.
stage "bench: e2ebench related seed 631"
e2ebench/run.sh --workload related --seed 631 --seconds 1 --trace 0 | tail -n 1 |
  grep -q '"correct":true'

if [[ "$FAST" -eq 1 ]]; then
  echo "ci.sh: fast mode — lint + release suite passed"
  exit 0
fi

# 3. Debug + ASan/UBSan: assertions and DCHECKs on, every allocation and UB
# checked.
run_suite asan build-ci-asan \
  CMAKE_BUILD_TYPE=Debug "CMAKE_CXX_FLAGS=-fsanitize=address,undefined -fno-sanitize-recover=all" -- \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
stage "asan: ctest"
(cd build-ci-asan && ctest --output-on-failure -j "$JOBS" --timeout "$CTEST_TIMEOUT")

# 4. TSan: the full suite (not just a concurrency smoke) — single-threaded
# suites are cheap under TSan and the executor/pool paths hide in many of
# them via the shared pool.
run_suite tsan build-ci-tsan \
  CMAKE_BUILD_TYPE=RelWithDebInfo CMAKE_CXX_FLAGS=-fsanitize=thread -- \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread" -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
stage "tsan: ctest"
(cd build-ci-tsan &&
  TSAN_OPTIONS="suppressions=$(cd .. && pwd)/tsan.supp" ctest --output-on-failure -j "$JOBS" \
    --timeout "$CTEST_TIMEOUT")
# The scheduler suites once more, each test repeated until it fails or has
# passed 20 times: a bad hand-off between dataflow participants may need many
# interleavings to surface. Block pruning joins them: retire() writes the
# lagged-best ring and the tiles of later strips read it, ordered only by the
# window gate. So does Stage 2: its waves read special rows and run engine
# problems on several pool threads at once. So does the SRA writer: submit()
# moves a row buffer into its queue and takes a retired one back, which the
# engine then refills while the writer thread writes the next.
stage "tsan: scheduler suites x20"
(cd build-ci-tsan &&
  TSAN_OPTIONS="suppressions=$(cd .. && pwd)/tsan.supp" ctest --output-on-failure -j "$JOBS" \
    --timeout "$CTEST_TIMEOUT" \
    -R '^(TileGraph\.|Dataflow|Seeds/EngineFuzz\.|BlockPruning\.|Stage2\.|AsyncWriter\.)' \
    --repeat until-fail:20)

echo "ci.sh: all suites passed"
