#!/usr/bin/env bash
# Lint wall for cudalign, run by the ci.sh lint stage. Since PR 4 this is a
# thin wrapper: the repo rules live in tools/cudalint/, a real C++ analyzer
# with a lexer (comment/string/raw-string aware — the grep rules it replaced
# were blind to all three), a declaration-aware parser feeding the
# concurrency/ownership rule pack, and the include-layering manifest
# (tools/cudalint/layering.manifest).
#
#   tools/lint.sh            cudalint + clang-tidy (if installed)
#   tools/lint.sh --no-tidy  cudalint only
#   tools/lint.sh --json     machine-readable cudalint report (implies --no-tidy)
#
# cudalint runs per tree with the same configurations as the ctest gates in
# tools/cudalint/CMakeLists.txt: src/ and tools/ with the full rule set,
# tests/ with explicit-memory-order off (test atomics deliberately lean on
# default seq_cst; the TSan suite covers them dynamically). All three share
# the checked-in suppression budget. Under GitHub Actions ($GITHUB_ACTIONS)
# findings are also emitted as `::error file=...` workflow annotations so
# they surface inline on the PR diff.
#
# Builds the cudalint binary on demand, reusing an already-configured build
# tree when one exists. `cudalint --list-rules` prints the rule catalogue;
# DESIGN.md "Static analysis" has the rationale.
#
# clang-tidy runs over src/ with the repo .clang-tidy when both clang-tidy
# and a compile_commands.json are available; otherwise that stage is skipped
# with a notice (the container CI image has no clang toolchain).
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_TIDY=1
JSON=0
for arg in "$@"; do
  case "$arg" in
    --no-tidy) RUN_TIDY=0 ;;
    --json) JSON=1; RUN_TIDY=0 ;;
    *) echo "lint.sh: unknown flag $arg" >&2; exit 2 ;;
  esac
done

# Build cudalint, preferring a build tree that is already configured.
BUILD_DIR=""
for d in build build-ci-release build-lint; do
  [[ -f "$d/CMakeCache.txt" ]] && BUILD_DIR="$d" && break
done
if [[ -z "$BUILD_DIR" ]]; then
  BUILD_DIR=build-lint
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
fi
cmake --build "$BUILD_DIR" --target cudalint -j "$(nproc)" >/dev/null

CUDALINT="$BUILD_DIR/tools/cudalint/cudalint"
BUDGET=(--budget tools/cudalint/suppressions.budget)
GITHUB=()
[[ "${GITHUB_ACTIONS:-}" == "true" ]] && GITHUB=(--github)
if [[ "$JSON" -eq 1 ]]; then
  # One tree per report keeps the schema simple; src is the interesting one.
  exec "$CUDALINT" --root . "${BUDGET[@]}" --json src
fi
"$CUDALINT" --root . "${BUDGET[@]}" "${GITHUB[@]}" src
"$CUDALINT" --root . "${BUDGET[@]}" "${GITHUB[@]}" --disable explicit-memory-order tests
"$CUDALINT" --root . "${BUDGET[@]}" "${GITHUB[@]}" tools

# clang-tidy stage (optional by toolchain availability).
if [[ "$RUN_TIDY" -eq 1 ]]; then
  if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "lint: clang-tidy not installed — skipping tidy stage"
    exit 0
  fi
  compdb=""
  for d in build build-ci-release build-strict build-lint; do
    [[ -f "$d/compile_commands.json" ]] && compdb="$d" && break
  done
  if [[ -z "$compdb" ]]; then
    echo "lint: no compile_commands.json (configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON) — skipping tidy stage"
    exit 0
  fi
  echo "lint: clang-tidy over src/ (compdb: $compdb)"
  find src -name '*.cpp' -print0 | xargs -0 clang-tidy -p "$compdb" --quiet
  echo "lint: clang-tidy clean"
fi
