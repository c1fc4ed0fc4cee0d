#ifndef ADAMOVE_CORE_FORWARD_PLAN_H_
#define ADAMOVE_CORE_FORWARD_PLAN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/annotations.h"
#include "common/mutex.h"
#include "core/encoder.h"
#include "core/model.h"
#include "nn/plan/executor.h"
#include "nn/plan/verifier.h"

namespace adamove::core {

/// Which encode route inference takes (DESIGN.md §14). Not configurable:
/// ForwardPlanner::traceable() decides it from the model itself.
///  - kPlan: execute a compiled, verified static forward plan (zero heap
///    allocations per request) — every RNN/LSTM/GRU encoder, stacked or not;
///  - kGraph: walk the autograd graph — encoder families the tracer cannot
///    compile (the Transformer) and models without a trajectory encoder.
enum class ForwardMode : uint8_t { kGraph, kPlan };

/// Always kPlan; reads no environment variable. A leftover for the frozen
/// benchmark, which prints it as a header line — removed at the next
/// benchmark revision. The route a model actually takes is
/// ForwardPlanner::traceable() (PredictionService::forward_mode()).
ForwardMode ForwardModeFromEnv();

/// Per-thread (or per-serving-worker) mutable state for plan execution.
/// Everything reuses capacity: after the first request of a given shape,
/// encoding a sample performs zero heap allocations.
struct PlanScratch {
  nn::plan::PlanExecutor executor;
  std::vector<int64_t> locs;
  std::vector<int64_t> slots;
  std::vector<int64_t> users;
  common::AlignedBuffer<float> reps;  // {rows, cols} encode output
  int64_t rows = 0;
  int64_t cols = 0;
};

/// Compiles and caches static forward plans for one AdaptableModel, keyed
/// by sequence length (the only shape degree of freedom at serve time).
/// Thread-safe; plans are immutable and shared, executors live in
/// caller-owned PlanScratch.
///
/// Staleness: plans borrow the model's weight storage. Cached plans are
/// revalidated on every use by comparing their weight-pointer fingerprint
/// against the live model (allocation-free), which catches any checkpoint
/// hot-swap that reallocated tensor storage; an in-place overwrite keeps
/// pointers valid and needs no invalidation at all. InvalidateAll() is the
/// explicit belt-and-suspenders hook serving calls on hot-swap.
///
/// Verification: every freshly compiled plan is run through the static
/// verifier (nn/plan/verifier.h) before it may serve — once per compile,
/// zero per-request cost. A rejected plan is never cached or executed; the
/// sequence length is remembered as rejected (until weights change or
/// InvalidateAll), EncodeInto declines it so the caller walks the graph, and
/// verify_rejects() feeds ServiceStats::plan_verify_rejects. A rejection is
/// a compiler bug (DESIGN.md §15) and is also reported on stderr.
class ForwardPlanner {
 public:
  explicit ForwardPlanner(const AdaptableModel& model);

  /// Whether inference runs plans for this model: it has a trajectory
  /// encoder and the tracer compiles its family (RNN/LSTM/GRU, stacked or
  /// not). Fixed at construction; false means the graph walk serves every
  /// request.
  bool traceable() const { return seq_ != nullptr; }

  /// Encodes sample.recent through the compiled plan into scratch->reps
  /// ({scratch->rows, scratch->cols}, row k = prefix representation h_k).
  /// Returns false when no plan serves this request (untraceable model, or a
  /// sequence length the verifier rejected); the caller walks the graph
  /// instead. Bit-identical to the graph walk under every backend.
  bool EncodeInto(const data::Sample& sample, PlanScratch* scratch);

  /// Drops every cached plan. Call after a checkpoint hot-swap; the next
  /// request recompiles against the new weights.
  void InvalidateAll();

  /// Plan compilations so far (distinct sequence lengths, plus recompiles
  /// after invalidation) — a test/diagnostic counter.
  int64_t compiles() const;

  /// Verifier runs so far. By default this tracks compiles() (one
  /// verification per compile); steady-state cache hits add nothing — the
  /// "0 ns per request" half of the bench gate.
  int64_t verifies() const;

  /// Plans the verifier rejected (each length then walks the graph).
  int64_t verify_rejects() const;

  /// Switches verification between kCompile (the default) and kParanoid,
  /// which re-verifies the cached plan on every use. Test hook; also drops
  /// cached rejection verdicts so the new mode applies.
  void SetVerifyModeForTest(nn::plan::VerifyMode mode);

 private:
  std::shared_ptr<const nn::plan::CompiledPlan> PlanFor(int64_t t);

  // Borrowed component pointers (stable: they are unique_ptr members of
  // the model); seq_ is null when the model has no trajectory encoder or
  // the tracer cannot compile its family.
  const PointEmbedding* embedding_ = nullptr;
  const nn::SequenceEncoder* seq_ = nullptr;
  std::vector<const nn::Embedding*> tables_;

  mutable common::Mutex mu_;
  std::map<int64_t, std::shared_ptr<const nn::plan::CompiledPlan>> plans_
      ADAMOVE_GUARDED_BY(mu_);
  int64_t compiles_ ADAMOVE_GUARDED_BY(mu_) = 0;
  int64_t verifies_ ADAMOVE_GUARDED_BY(mu_) = 0;
  int64_t verify_rejects_ ADAMOVE_GUARDED_BY(mu_) = 0;
  nn::plan::VerifyMode verify_mode_ ADAMOVE_GUARDED_BY(mu_) =
      nn::plan::VerifyMode::kCompile;
  // Sequence lengths whose compiled plan failed verification for the
  // current weights: steady state pays one set lookup instead of a
  // recompile-and-reject per request. Cleared when weights move or on
  // InvalidateAll.
  std::set<int64_t> rejected_ ADAMOVE_GUARDED_BY(mu_);
};

}  // namespace adamove::core

#endif  // ADAMOVE_CORE_FORWARD_PLAN_H_
