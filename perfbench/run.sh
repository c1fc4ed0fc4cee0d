#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources (incrementally) and runs
# one workload. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload steady --seed 42 --seconds 10 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the benchmark's
# JSON summary. The build directory is $CARGO_TARGET_DIR when set, else
# .bench_build. A traced run (--trace 1) also writes its spans as a Chrome
# trace under <build dir>/traces/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target adamove_bench -j 4 >&2

args=("$@")
workload="" seed="42" trace="0"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="${2:-}"; shift 2 || shift ;;
    --workload=*) workload="${1#*=}"; shift ;;
    --seed) seed="${2:-}"; shift 2 || shift ;;
    --seed=*) seed="${1#*=}"; shift ;;
    --trace) trace="${2:-}"; shift 2 || shift ;;
    --trace=*) trace="${1#*=}"; shift ;;
    *) shift ;;
  esac
done
if [[ "$trace" == "1" ]]; then
  mkdir -p "$build/traces"
  args+=(--trace-out "$build/traces/$workload-$seed.json")
fi
exec "$build/adamove_bench" "${args[@]}"
