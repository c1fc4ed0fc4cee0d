#!/usr/bin/env bash
# Builds the benchmark and runs every workload, collecting the metric lines
# of all runs into one file per set. Run from the root of the checkout:
#
#   bash perfbench/run_all.sh [--repeats=N] [--seed=S] [--seconds=T]
#                             [--trace] [--out=DIR]
#
# Run r of each workload uses seed S + r (default S = 42, N = 5, T = 10).
# Untraced metric lines go to DIR/metrics.txt (default
# .bench_build/results). --trace adds one traced run per workload at seed S:
# its per-layer lines go to DIR/trace-metrics.txt and its Chrome traces to
# DIR/traces/. Compare two sets with
#
#   .bench_build/bench_compare BENCHMARK.json base/metrics.txt new/metrics.txt
set -euo pipefail

repeats=5 seed=42 seconds=10 trace=0 out=""
for arg in "$@"; do
  case "$arg" in
    --repeats=*) repeats="${arg#*=}" ;;
    --seed=*) seed="${arg#*=}" ;;
    --seconds=*) seconds="${arg#*=}" ;;
    --trace) trace=1 ;;
    --out=*) out="${arg#*=}" ;;
    *) echo "run_all.sh: unknown argument $arg" >&2; exit 2 ;;
  esac
done

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
out="${out:-$build/results}"
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j 4 >&2
mkdir -p "$out"
: > "$out/metrics.txt"

workloads=(steady overload churn offline_tta)
status=0
for workload in "${workloads[@]}"; do
  for ((r = 0; r < repeats; r++)); do
    s=$((seed + r))
    echo "== $workload seed $s" >&2
    if ! "$build/adamove_bench" --workload "$workload" --seed "$s" \
        --seconds "$seconds" --trace 0 >> "$out/metrics.txt"; then
      echo "run_all.sh: $workload seed $s failed" >&2
      status=1
    fi
  done
done

if [[ "$trace" == "1" ]]; then
  : > "$out/trace-metrics.txt"
  mkdir -p "$out/traces"
  for workload in "${workloads[@]}"; do
    echo "== $workload traced, seed $seed" >&2
    if ! "$build/adamove_bench" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 1 \
        --trace-out "$out/traces/$workload-$seed.json" \
        >> "$out/trace-metrics.txt"; then
      echo "run_all.sh: traced $workload failed" >&2
      status=1
    fi
  done
fi
grep -v '^[#{]' "$out/metrics.txt" || true
exit "$status"
