#!/usr/bin/env bash
# Builds bench_e2e (Release, in build-bench/ at the repository root) from
# this checkout's sources, then runs it. Build output goes to
# build-bench/build.log; run files go to build-bench/work/.
#
#   e2ebench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last stdout line is its JSON result
#   e2ebench/run.sh [--seed N] [--seconds S] [--out FILE]
#       every workload, untraced then traced (default FILE:
#       build-bench/e2e-set.json)
#   e2ebench/run.sh --compare A.json B.json
#   e2ebench/run.sh --smoke
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-bench"

if [[ ! -f "$root/src/CMakeLists.txt" || ! -f "$root/BENCHMARK.json" ]]; then
  echo "run.sh: $root is not a cudalign checkout (src/ or BENCHMARK.json missing)" >&2
  exit 2
fi

# Compilers and the benchmark write temporary files; keep them in here.
export TMPDIR="$build/tmp"
mkdir -p "$TMPDIR"
# Configure once; later builds re-run CMake by themselves when a CMakeLists.txt changes.
if ! { { [[ -f "$build/CMakeCache.txt" ]] ||
         cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release; } &&
       cmake --build "$build" --target bench_e2e -j "$(nproc)"; } >"$build/build.log" 2>&1; then
  tail -n 40 "$build/build.log" >&2
  echo "run.sh: build failed (full log: $build/build.log)" >&2
  exit 2
fi

common=(--workdir "$build/work" --benchmark-json "$root/BENCHMARK.json"
        --layers-json "$here/layers.json")
for arg in "$@"; do
  case "$arg" in
    --workload|--compare|--smoke) exec "$build/bench_e2e" "$@" "${common[@]}" ;;
  esac
done
out=(--out "$build/e2e-set.json")
for arg in "$@"; do
  [[ "$arg" == --out ]] && out=()
done
exec "$build/bench_e2e" --suite "${out[@]}" "$@" "${common[@]}"
