#ifndef ADAMOVE_CORE_FORWARD_PLAN_H_
#define ADAMOVE_CORE_FORWARD_PLAN_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/annotations.h"
#include "common/mutex.h"
#include "core/encoder.h"
#include "core/model.h"
#include "nn/kernels.h"
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

/// Mutable state for plan execution, owned by one thread at a time (a
/// serving worker keeps one per batch slot). Every buffer keeps its
/// capacity, so once they have grown to the longest window and the largest
/// plan seen, encoding performs zero heap allocations.
struct PlanScratch {
  nn::plan::PlanExecutor executor;
  std::vector<int64_t> locs;
  std::vector<int64_t> slots;
  std::vector<int64_t> users;
  std::vector<float> zero_carry;      // carry-in of a full encode
  std::vector<float> carry;           // carry-out of the last plan run
  common::AlignedBuffer<float> reps;  // {rows, cols} encode output
  int64_t rows = 0;
  int64_t cols = 0;
  /// Leading rows of `reps` copied from a PrefixState instead of encoded
  /// (always 0 after EncodeInto).
  int64_t reused = 0;
};

/// The encoder state one user's last window left behind (DESIGN.md §14,
/// "Prefix state") — the recurrent counterpart of an attention KV cache:
/// the window's points, its prefix-representation rows, and every layer's
/// carry after its last point, tagged with the weights generation and the
/// kernel backend that computed them. Derived state: never snapshotted,
/// migrated or serialized; losing it costs one full encode.
struct PrefixState {
  std::vector<data::Point> points;
  std::vector<float> rows;   // {points.size(), hidden}
  std::vector<float> carry;  // the plans' carry layout
  uint64_t generation = 0;
  nn::kernels::Backend backend = nn::kernels::Backend::kScalar;

  /// Bytes held: the struct plus every buffer's capacity.
  size_t Bytes() const;
};

/// Compiles and caches static forward plans for one AdaptableModel, keyed
/// by sequence length (the only shape degree of freedom at serve time).
/// Thread-safe; plans are immutable and shared, executors live in
/// caller-owned PlanScratch.
///
/// Staleness: plans borrow the model's weight storage. Every use compares
/// the weight pointers the plans were compiled against with the live model
/// (allocation-free), which catches any checkpoint hot-swap that
/// reallocated tensor storage; an in-place overwrite keeps pointers, and
/// so cached plans, valid. Both the reallocation reset and InvalidateAll()
/// bump generation(), which retires every PrefixState computed before —
/// so prefix state, unlike a plan, needs InvalidateAll() after an in-place
/// overwrite too.
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
  /// ({scratch->rows, scratch->cols}, row k = prefix representation h_k),
  /// from the zero carry. Returns false when no plan serves this request
  /// (untraceable model, or a sequence length the verifier rejected); the
  /// caller walks the graph instead. Bit-identical to the graph walk under
  /// every backend.
  bool EncodeInto(const data::Sample& sample, PlanScratch* scratch);

  /// EncodeInto that resumes from `state`, the window an earlier call left
  /// there. A hit — state computed under this generation() and the active
  /// kernel backend, its points a point-for-point prefix of sample.recent —
  /// copies state's rows and runs a plan over only the new points, starting
  /// from state's carry (an exact repeat runs none). A miss runs the plan
  /// over the whole window from the zero carry. Either way the reps are
  /// bit-identical to EncodeInto's, scratch->reused counts the copied rows,
  /// and *state then holds this window. Returns false exactly when
  /// EncodeInto would, leaving *state untouched. The caller must own
  /// *state exclusively for the call.
  bool ExtendInto(const data::Sample& sample, PrefixState* state,
                  PlanScratch* scratch);

  /// Drops every cached plan and retires every PrefixState. Call after a
  /// checkpoint hot-swap; the next request recompiles against the new
  /// weights.
  void InvalidateAll();

  /// Bumped by InvalidateAll() and by the weight-pointer reset (checked
  /// here first), so it always names the live weights: a PrefixState from
  /// another generation is stale.
  uint64_t generation();

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
  /// Drops plans, verdicts and the generation when the weights moved.
  void RevalidateLocked() ADAMOVE_REQUIRES(mu_);
  /// Runs `plan` over `points` from `carry_in`: rows into `out`, the state
  /// after the last point into scratch->carry.
  void RunPlan(const std::shared_ptr<const nn::plan::CompiledPlan>& plan,
               std::span<const data::Point> points, const float* carry_in,
               float* out, PlanScratch* scratch);

  // Borrowed component pointers (stable: they are unique_ptr members of
  // the model); seq_ is null when the model has no trajectory encoder or
  // the tracer cannot compile its family.
  const PointEmbedding* embedding_ = nullptr;
  const nn::SequenceEncoder* seq_ = nullptr;
  std::vector<const nn::Embedding*> tables_;

  mutable common::Mutex mu_;
  std::map<int64_t, std::shared_ptr<const nn::plan::CompiledPlan>> plans_
      ADAMOVE_GUARDED_BY(mu_);
  // The weight pointers plans_ and generation_ were computed against.
  std::vector<const float*> fingerprint_ ADAMOVE_GUARDED_BY(mu_);
  uint64_t generation_ ADAMOVE_GUARDED_BY(mu_) = 1;
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

/// Every key's PrefixState, shared by one service's workers (DESIGN.md §14,
/// "Prefix state"). Keys hash onto common::Mutex shards; an encode holds
/// its key's shard lock throughout, so racing requests for one key
/// serialize, and a hit needs an exact prefix match whatever order they
/// ran in. Bounded by `max_entries` with least-recently-used eviction (at
/// most that many entries in total), or one entry per key when 0. Entries
/// of an older ForwardPlanner::generation() are dropped on their shard's
/// next encode.
class PrefixCache {
 public:
  explicit PrefixCache(size_t max_entries);

  /// ForwardPlanner::ExtendInto against `key`'s entry (created on first
  /// use). False when the planner serves no plan; the caller walks the
  /// graph.
  bool Encode(ForwardPlanner& planner, int64_t key, const data::Sample& sample,
              PlanScratch* scratch);

  /// Drops every entry.
  void Clear();

  /// Resident entries and their PrefixState::Bytes, across shards.
  size_t entries() const;
  size_t bytes() const;

 private:
  struct Entry {
    PrefixState state;
    std::list<int64_t>::iterator lru_pos;
  };
  struct Shard {
    mutable common::Mutex mu;
    /// Most-recently-used first; back() is the eviction victim.
    std::list<int64_t> lru ADAMOVE_GUARDED_BY(mu);
    std::unordered_map<int64_t, Entry> entries ADAMOVE_GUARDED_BY(mu);
    size_t bytes ADAMOVE_GUARDED_BY(mu) = 0;
    uint64_t generation ADAMOVE_GUARDED_BY(mu) = 0;
  };

  size_t per_shard_cap_ = 0;  // 0 = unbounded
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace adamove::core

#endif  // ADAMOVE_CORE_FORWARD_PLAN_H_
