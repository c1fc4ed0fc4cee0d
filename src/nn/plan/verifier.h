#ifndef ADAMOVE_NN_PLAN_VERIFIER_H_
#define ADAMOVE_NN_PLAN_VERIFIER_H_

#include <cstdint>
#include <string>

#include "nn/plan/plan.h"

namespace adamove::nn::plan {

/// Static plan verifier (DESIGN.md §15).
///
/// A CompiledPlan drives raw-pointer arithmetic over one shared arena with
/// no per-op bounds or lifetime checks at run time — the zero-allocation
/// contract (§14) deliberately strips them. The price is that a single bad
/// lifetime interval or arena offset is silent memory corruption that the
/// runtime suites only catch for the shapes they happen to exercise.
/// VerifyPlan is the machine check that closes that gap: a one-shot pass
/// over a finished plan that proves, for *this* plan, every invariant the
/// executor assumes. It runs once per compile (zero per-request cost);
/// core::ForwardPlanner rejects a failing plan and serves the graph walk
/// instead.
///
/// Proven invariants:
///  1. Structure: non-empty op list, exactly one kOutput value whose elems
///     match {out_rows, out_cols}, every operand id in range, no op writes
///     a weight, every kGather index slot within num_index_inputs.
///  2. SSA over elements: each element of a temp/output is written by
///     exactly one op (single definition) and every element an op reads
///     was written by an earlier op (definition before use — which also
///     makes the op order a topological order of the dataflow).
///  3. Shapes: each op's read/write extents are re-derived from its kind
///     and {rows, cols, k, offsets, stride} fields and cross-checked
///     against the traced Value::elems — no access past a value's end.
///  4. Weights: non-null data, positive size, gather tables exactly
///     {k, cols}, and the registration-ordered weight_fingerprint covers
///     every kWeight value (what revalidation compares against).
///  5. Memory plan: every temp's [arena_offset, arena_offset + elems) is
///     64-byte aligned and inside [0, arena_elems); no two temps with
///     intersecting live intervals share arena bytes; recorded intervals
///     equal the intervals re-derived from the op list (the packer's
///     input was honest); no op's input aliases the bytes of its freshly
///     defined output, within a value or across the arena.
///  6. Caller buffers: the output and carry-out are fully written by the
///     end of the op list (each element exactly once, by 2.); carry-in is
///     defined on entry and never written; the plan's carry ids name
///     exactly one kCarryIn and one kCarryOut of carry_elems floats, and
///     neither holds an arena placement that could alias a temp.
///
/// Any violation yields a diagnostic naming the check, the offending op
/// index/kind and value id — precise enough for the mutation suite
/// (tests/nn/plan_verifier_test.cc) to pin each corruption class.

/// When core::ForwardPlanner verifies plans:
///  - kCompile: once per plan compile — zero steady-state cost (always, in
///    production);
///  - kParanoid: additionally on every cached-plan revalidation. Reachable
///    only through ForwardPlanner::SetVerifyModeForTest: it puts the
///    verifier (and its allocations) on the request path, forfeiting the
///    zero-alloc contract while hunting corruption.
enum class VerifyMode : uint8_t { kCompile, kParanoid };

/// Diagnostic name of one op kind (e.g. "MatMul"), for messages and tests.
const char* OpKindName(OpKind kind);

struct VerifyResult {
  bool ok = true;
  /// Empty when ok; otherwise "plan-verify[<check>]: <detail>" where
  /// <check> is one of: structure, output, carry, value, weight,
  /// fingerprint, arena-bounds, arena-align, arena-overlap, shape, bounds,
  /// single-def, use-before-def, alias, interval.
  std::string message;
  explicit operator bool() const { return ok; }
};

/// Verifies `plan` against every invariant above. Pure function of the
/// plan; allocates freely (diagnostics, range bookkeeping) — callers keep
/// it off the zero-alloc request path unless in kParanoid mode.
VerifyResult VerifyPlan(const CompiledPlan& plan);

}  // namespace adamove::nn::plan

#endif  // ADAMOVE_NN_PLAN_VERIFIER_H_
