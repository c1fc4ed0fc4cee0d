#!/usr/bin/env bash
# Prints the lines added, removed and net under src/ between BASE and the
# working tree. Only tracked files count, so `git add` new files first.
# BASE defaults to the merge-base with origin/main, which makes the report
# a branch's whole delta.
#
# Usage: scripts/src_delta.sh [BASE]
set -euo pipefail

cd "$(dirname "$0")/.."
if [[ $# -ge 1 ]]; then
  base="$1"
elif ! base="$(git merge-base HEAD origin/main 2>/dev/null)"; then
  echo "src_delta: no origin/main to diff against; pass BASE" >&2
  exit 2
fi
short="$(git rev-parse --short "$base")"
git diff --numstat "$base" -- src/ | awk -v base="$short" '
  $1 != "-" { added += $1; removed += $2 }
  END {
    printf "src/ vs %s: added %d, removed %d, net %+d\n",
           base, added, removed, added - removed
  }'
