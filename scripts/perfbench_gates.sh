#!/usr/bin/env bash
# The end-to-end benchmark's correctness gates, run as a check: every
# perfbench workload for 2 seconds, under the default kernel backend and
# with ADAMOVE_KERNEL_BACKEND=scalar forced. Each run's summary line says
# "correct": true only if all of its gates held — among them, steady's 500
# served answers bit-identical to one sequential OnlineAdapter (the only
# bench-scale check of the served path, encoder prefix state included),
# churn's cold-tier answers against an uncapped store, and the offline
# adapter against its materialized weights. Fails on the first run that
# does not print it.
#
# Usage: scripts/perfbench_gates.sh   (builds perfbench into .bench_build/)
set -euo pipefail

cd "$(dirname "$0")/.."
for backend in default scalar; do
  for workload in steady overload churn offline_tta; do
    if [[ "$backend" == scalar ]]; then
      summary="$(ADAMOVE_KERNEL_BACKEND=scalar \
        bash perfbench/run.sh --workload "$workload" --seconds 2 | tail -n 1)"
    else
      summary="$(bash perfbench/run.sh --workload "$workload" --seconds 2 |
        tail -n 1)"
    fi
    if [[ "$summary" != *'"correct": true'* ]]; then
      echo "perfbench $workload ($backend backend) failed its gates:" >&2
      echo "$summary" >&2
      exit 1
    fi
    echo "    perfbench $workload ($backend backend): correct"
  done
done
