#!/usr/bin/env bash
# Repo lint driver — stage 4 of scripts/check.sh, also runnable standalone.
#
#   scripts/lint.sh                 # adamove_lint + clang-tidy (if present)
#   ADAMOVE_LINT_BUILD_DIR=build scripts/lint.sh   # build dir / compile DB
#
# Two passes:
#
#   1. tools/adamove_lint — the compiled repo invariant linter. It owns the
#      per-line rules this script used to express as grep pipelines
#      (raw-mutex, naked-new, rand, raw-write, session-store-construction,
#      raw-intrinsics-x86, raw-step-alloc, todo-label — see
#      tools/adamove_lint/lint.h for each rule's rationale) plus
#      qfloat-quantize (pattern quantization only at its three homes),
#      running them over a real comment- and string-literal-aware tokenizer
#      with per-rule NOLINT(rule) scoping, plus the cross-registry checks no
#      grep can do:
#      every FaultPoint in src/ documented in DESIGN.md and exercised under
#      tests/, every ADAMOVE_* knob documented in README.md (and every
#      README knob read by code or declared as a CMake option), every ctest
#      label run by a check.sh stage and every staged label declared by a
#      suite, and every `-L` expression in .github/workflows/ci.yml equal to
#      one in check.sh and back. Diagnostics are `file:line: rule:
#      message`; any finding fails the pass. The rules themselves are
#      unit-tested (tests/tools/adamove_lint_test.cc), including regressions
#      for the grep era's two defect classes: NOLINT anywhere on a line
#      (even inside a string literal) silencing every rule, and the
#      comment stripper recognizing only line-leading //.
#
#   2. clang-tidy (.clang-tidy profile: bugprone-*, performance-*,
#      concurrency-*, container/string readability checks) over every .cc
#      under src/, using the compile database of an existing build dir.
#      Skipped with a notice when clang-tidy is not installed — pass 1
#      still gates.
set -uo pipefail

cd "$(dirname "$0")/.."
status=0
JOBS="${JOBS:-$(nproc)}"
BUILD_DIR="${ADAMOVE_LINT_BUILD_DIR:-build}"

# ---- pass 1: adamove_lint ------------------------------------------------
if ! cmake -B "$BUILD_DIR" -S . >/dev/null; then
  echo "lint[adamove_lint]: cmake configure of $BUILD_DIR failed"
  exit 1
fi
if ! cmake --build "$BUILD_DIR" --target adamove_lint -j "$JOBS" >/dev/null
then
  echo "lint[adamove_lint]: build failed"
  exit 1
fi
if "$BUILD_DIR/tools/adamove_lint" --root .; then
  echo "lint[adamove_lint]: ok"
else
  echo "lint[adamove_lint]: FAIL"
  status=1
fi

# ---- pass 2: clang-tidy --------------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  echo "lint[clang-tidy]: $(clang-tidy --version | grep -m1 -o 'LLVM version [0-9.]*')"
  if [[ ! -f "$BUILD_DIR/compile_commands.json" ]]; then
    echo "lint[clang-tidy]: no $BUILD_DIR/compile_commands.json —" \
         "configure first (cmake -B $BUILD_DIR -S .)"
    status=1
  else
    mapfile -t TIDY_SOURCES < <(find src -name '*.cc' | sort)
    if clang-tidy -p "$BUILD_DIR" --quiet "${TIDY_SOURCES[@]}"; then
      echo "lint[clang-tidy]: ok (${#TIDY_SOURCES[@]} files)"
    else
      echo "lint[clang-tidy]: FAIL"
      status=1
    fi
  fi
else
  echo "lint[clang-tidy]: skipped (clang-tidy not installed)"
fi

if [[ "$status" -ne 0 ]]; then
  echo "lint: FAILED"
else
  echo "lint: all passes clean"
fi
exit "$status"
