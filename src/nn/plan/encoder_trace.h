#ifndef ADAMOVE_NN_PLAN_ENCODER_TRACE_H_
#define ADAMOVE_NN_PLAN_ENCODER_TRACE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/layers.h"
#include "nn/plan/plan.h"
#include "nn/rnn.h"

namespace adamove::nn::plan {

/// Traces the inference forward of `seq` applied to the column-concatenated
/// lookups of `embeddings` — the trajectory-encoder shape: one int64 index
/// input per table (in order), x = concat_cols(table_i[indices_i]),
/// y = seq(x) — into a CompiledPlan for sequences of exactly `seq_len`
/// steps. The trace re-emits the graph ops of rnn.cc verbatim (same
/// broadcast flags, same fused kernels, same scalar loops), so executing
/// the plan over a zero carry is bit-identical to graph mode on every
/// backend. Run over the carry-out of a plan that encoded points
/// p_0..p_{P-1}, it yields rows P..P+seq_len-1 of the full window's encode,
/// bit for bit.
///
/// Returns nullptr when `seq` contains an encoder the tracer does not know
/// (e.g. the transformer) — callers keep the graph path as fallback.
std::shared_ptr<const CompiledPlan> CompileEncoderForward(
    const std::vector<const Embedding*>& embeddings,
    const SequenceEncoder& seq, int64_t seq_len);

/// The raw weight data pointers a CompileEncoderForward trace would borrow,
/// in registration order (embedding tables, then per-layer weights). Empty
/// when `seq` is untraceable — every plan's weight_fingerprint.
/// core::ForwardPlanner keeps it and compares it with the live model: a
/// checkpoint hot-swap that reallocated tensor storage changes pointers and
/// invalidates every plan.
std::vector<const float*> EncoderWeightPointers(
    const std::vector<const Embedding*>& embeddings,
    const SequenceEncoder& seq);

/// True when the live encoder's weight pointers equal `fingerprint` (length
/// `n`) — i.e. a plan carrying that fingerprint still borrows valid
/// storage. Allocation-free, so cached-plan revalidation stays inside the
/// zero-alloc steady state.
bool EncoderWeightsMatch(const std::vector<const Embedding*>& embeddings,
                         const SequenceEncoder& seq,
                         const float* const* fingerprint, size_t n);

}  // namespace adamove::nn::plan

#endif  // ADAMOVE_NN_PLAN_ENCODER_TRACE_H_
