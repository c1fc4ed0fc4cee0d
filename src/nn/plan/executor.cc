#include "nn/plan/executor.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "common/check.h"
#include "common/parallel_for.h"
#include "nn/kernels.h"

namespace adamove::nn::plan {

void PlanExecutor::Bind(std::shared_ptr<const CompiledPlan> plan) {
  ADAMOVE_CHECK(plan != nullptr);
  plan_ = std::move(plan);
  // The one allocating step: size the arena for the plan's packed temps.
  arena_.Resize(  // NOLINT(plan-executor-alloc): rebind, not the hot path
      static_cast<size_t>(plan_->arena_elems));
}

const float* PlanExecutor::Src(ValueId id, const Io& io) const {
  const Value& v = plan_->values[static_cast<size_t>(id)];
  switch (v.kind) {
    case ValueKind::kWeight:
      return v.weight_data;
    case ValueKind::kTemp:
      return arena_.data() + v.arena_offset;
    case ValueKind::kOutput:
      return io.out;
    case ValueKind::kCarryIn:
      return io.carry_in;
    case ValueKind::kCarryOut:
      return io.carry_out;
  }
  return nullptr;  // unreachable
}

float* PlanExecutor::Dst(ValueId id, const Io& io) {
  const Value& v = plan_->values[static_cast<size_t>(id)];
  if (v.kind == ValueKind::kOutput) return io.out;
  if (v.kind == ValueKind::kCarryOut) return io.carry_out;
  ADAMOVE_CHECK(v.kind == ValueKind::kTemp);  // never a weight or carry-in
  return arena_.data() + v.arena_offset;
}

void PlanExecutor::Run(const int64_t* const* index_inputs,
                       const float* carry_in, float* out, float* carry_out) {
  ADAMOVE_CHECK(plan_ != nullptr);
  // Carry-in must stay intact until the last layer has read it, so the two
  // carry buffers may not overlap.
  const auto bytes = static_cast<uintptr_t>(plan_->carry_elems) * sizeof(float);
  const auto in = reinterpret_cast<uintptr_t>(carry_in);
  const auto co = reinterpret_cast<uintptr_t>(carry_out);
  ADAMOVE_CHECK(bytes == 0 || (in != 0 && co != 0));
  ADAMOVE_CHECK(in + bytes <= co || co + bytes <= in);
  const Io io{carry_in, out, carry_out};
  // Pin kernels inline for the whole run: ParallelFor's pool path allocates
  // its future list, and by the determinism contract (DESIGN.md §13)
  // chunking is scheduling, never arithmetic, so values are unchanged.
  common::SerialKernelRegion serial;
  for (const Op& op : plan_->ops) {
    switch (op.kind) {
      case OpKind::kCopy: {
        std::copy_n(Src(op.a, io) + op.a_off, op.cols,
                    Dst(op.dst, io) + op.dst_off);
        break;
      }
      case OpKind::kGather: {
        const int64_t* idx = index_inputs[op.index_input];
        const float* table = Src(op.a, io);
        float* dst = Dst(op.dst, io) + op.dst_off;
        for (int64_t r = 0; r < op.rows; ++r) {
          const int64_t row = idx[r];
          ADAMOVE_CHECK_GE(row, 0);
          ADAMOVE_CHECK_LT(row, op.k);
          std::copy_n(table + row * op.cols, op.cols,
                      dst + r * op.dst_stride);
        }
        break;
      }
      case OpKind::kMatMul: {
        // Graph mode always computes a matmul into a fresh zero-filled
        // node and lets MatMulNN accumulate; zero-fill + the same kernel
        // reproduces it bit for bit on every backend.
        const float* a = Src(op.a, io) + op.a_off;
        const float* b = Src(op.b, io) + op.b_off;
        float* dst = Dst(op.dst, io) + op.dst_off;
        std::fill_n(dst, op.rows * op.cols, 0.0f);
        kernels::MatMulNN(a, b, dst, op.rows, op.k, op.cols);
        break;
      }
      case OpKind::kAdd: {
        // Verbatim ops.cc Add loop, offsets standing in for the row/slice
        // copies graph mode materializes.
        const float* a = Src(op.a, io) + op.a_off;
        const float* b = Src(op.b, io) + op.b_off;
        float* dst = Dst(op.dst, io) + op.dst_off;
        for (int64_t r = 0; r < op.rows; ++r) {
          const int64_t ao = r * op.cols;
          const int64_t bo = op.broadcast ? 0 : ao;
          for (int64_t c = 0; c < op.cols; ++c) {
            dst[ao + c] = a[ao + c] + b[bo + c];
          }
        }
        break;
      }
      case OpKind::kMul: {
        const float* a = Src(op.a, io) + op.a_off;
        const float* b = Src(op.b, io) + op.b_off;
        float* dst = Dst(op.dst, io) + op.dst_off;
        for (int64_t i = 0; i < op.cols; ++i) dst[i] = a[i] * b[i];
        break;
      }
      case OpKind::kScalarMul: {
        const float* a = Src(op.a, io) + op.a_off;
        float* dst = Dst(op.dst, io) + op.dst_off;
        for (int64_t i = 0; i < op.cols; ++i) dst[i] = a[i] * op.scalar;
        break;
      }
      case OpKind::kScalarAdd: {
        const float* a = Src(op.a, io) + op.a_off;
        float* dst = Dst(op.dst, io) + op.dst_off;
        for (int64_t i = 0; i < op.cols; ++i) dst[i] = a[i] + op.scalar;
        break;
      }
      case OpKind::kTanh: {
        // Backend-independent scalar loop, replicated from ops.cc UnaryOp —
        // deliberately NOT a kernel call, so plan mode agrees with graph
        // mode under every backend.
        const float* a = Src(op.a, io) + op.a_off;
        float* dst = Dst(op.dst, io) + op.dst_off;
        for (int64_t i = 0; i < op.cols; ++i) dst[i] = std::tanh(a[i]);
        break;
      }
      case OpKind::kSigmoid: {
        const float* a = Src(op.a, io) + op.a_off;
        float* dst = Dst(op.dst, io) + op.dst_off;
        for (int64_t i = 0; i < op.cols; ++i) {
          dst[i] = 1.0f / (1.0f + std::exp(-a[i]));
        }
        break;
      }
      case OpKind::kAddTanh: {
        kernels::BiasTanh(Src(op.a, io) + op.a_off,
                          Src(op.b, io) + op.b_off,
                          Dst(op.dst, io) + op.dst_off, op.rows, op.cols,
                          op.broadcast);
        break;
      }
      case OpKind::kAddSigmoid: {
        kernels::BiasSigmoid(Src(op.a, io) + op.a_off,
                             Src(op.b, io) + op.b_off,
                             Dst(op.dst, io) + op.dst_off, op.rows, op.cols,
                             op.broadcast);
        break;
      }
    }
  }
}

}  // namespace adamove::nn::plan
