#ifndef ADAMOVE_NN_PLAN_EXECUTOR_H_
#define ADAMOVE_NN_PLAN_EXECUTOR_H_

#include <cstdint>
#include <memory>

#include "common/aligned_buffer.h"
#include "nn/plan/plan.h"

namespace adamove::nn::plan {

/// Runs a CompiledPlan. Bind() sizes the arena once per plan; every
/// subsequent Run() is a straight-line interpretation of the op list with
/// zero heap allocations — the property the `plan`-labeled alloc-probe
/// tests pin. scripts/lint.sh rejects allocation idioms (Tensor
/// construction, naked new, container growth) in this file's hot path.
///
/// Not thread-safe: the arena is the executor's mutable state, so each
/// serving worker (or test thread) owns its own executor. Plans themselves
/// are immutable and shared.
class PlanExecutor {
 public:
  PlanExecutor() = default;

  /// Binds `plan` and sizes the arena for it (the only allocating step;
  /// re-binding to a smaller plan keeps the larger arena).
  void Bind(std::shared_ptr<const CompiledPlan> plan);

  /// The bound plan, or nullptr before the first Bind.
  const CompiledPlan* plan() const { return plan_.get(); }

  /// Executes the bound plan. `index_inputs` holds
  /// plan()->num_index_inputs arrays of plan()->seq_len indices each;
  /// `carry_in` holds the plan()->carry_elems floats of recurrent state the
  /// first step resumes from (zeros for a full encode); `out` receives the
  /// {out_rows, out_cols} result and `carry_out` the state after the last
  /// step. The two carry buffers must not overlap. Kernels run inline
  /// (common::SerialKernelRegion) — pool submission heap-allocates, and by
  /// the determinism contract chunking never changes values.
  void Run(const int64_t* const* index_inputs, const float* carry_in,
           float* out, float* carry_out);

 private:
  /// The caller buffers of one Run.
  struct Io {
    const float* carry_in;
    float* out;
    float* carry_out;
  };

  const float* Src(ValueId id, const Io& io) const;
  float* Dst(ValueId id, const Io& io);

  std::shared_ptr<const CompiledPlan> plan_;
  common::AlignedBuffer<float> arena_;
};

}  // namespace adamove::nn::plan

#endif  // ADAMOVE_NN_PLAN_EXECUTOR_H_
