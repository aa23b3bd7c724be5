#!/usr/bin/env bash
# One command for the end-to-end benchmark: builds the harness in its own
# tree (build/e2e, Release, linked against the real bbrnash_* targets via
# project_hook.cmake) and runs each workload in its own process.
#
#   bench/e2e/run.sh [--workload W] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--smoke] [--build-dir DIR]
#                    [bbrnash_e2e options: --out F --check-expected F ...]
#
# With --workload, runs that workload once; the last line of stdout is its
# result object and the exit status is the harness's. Without, runs all
# four in turn and exits non-zero when any of them failed a check.
# --trace (or --trace 1) runs the traced binary for the per-layer metrics.
# --smoke runs every correctness check on a few units of each workload,
# untraced against expected/seed<N>.jsonl and traced (mirror against
# production), with no timing. Build output goes to stderr.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [ ! -f CMakeLists.txt ] || [ ! -d src ]; then
  echo "run.sh: $root holds no bbrnash source tree to build" >&2
  exit 2
fi

seed=1
seconds=25
trace=0
smoke=0
build=build/e2e
workloads=()
pass=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [ $# -gt 1 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    --smoke) smoke=1; shift ;;
    --build-dir) build="$2"; shift 2 ;;
    *) pass+=("$1"); shift ;;
  esac
done
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(trials_50flow ne_fig9 fig3_two_flow impaired_8flow)
fi

# cmake.check_cache marks a configure that finished generating.
if [ ! -f "$build/CMakeFiles/cmake.check_cache" ]; then
  cmake -S . -B "$build" -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_PROJECT_INCLUDE="$root/bench/e2e/project_hook.cmake" >&2
fi
targets=(bbrnash_e2e)
if [ "$trace" = 1 ] || [ "$smoke" = 1 ]; then targets+=(bbrnash_e2e_trace); fi
cmake --build "$build" --target "${targets[@]}" -j 4 >&2

run_dir="$build/run"
status=0
for w in "${workloads[@]}"; do
  if [ "$smoke" = 1 ]; then
    expected="bench/e2e/expected/seed$seed.jsonl"
    check=()
    if [ -f "$expected" ]; then check=(--check-expected "$expected"); fi
    "$build/bbrnash_e2e" --smoke --workload "$w" --seed "$seed" \
        --run-dir "$run_dir" "${check[@]+"${check[@]}"}" \
        "${pass[@]+"${pass[@]}"}" || status=1
    "$build/bbrnash_e2e_trace" --smoke --workload "$w" --seed "$seed" \
        --run-dir "$run_dir" || status=1
  else
    bin="$build/bbrnash_e2e"
    if [ "$trace" = 1 ]; then bin="$build/bbrnash_e2e_trace"; fi
    "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" \
        --run-dir "$run_dir" "${pass[@]+"${pass[@]}"}" || status=$?
  fi
done
exit "$status"
