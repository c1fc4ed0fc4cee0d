#ifndef ADAMOVE_CORE_FORWARD_PLAN_H_
#define ADAMOVE_CORE_FORWARD_PLAN_H_

#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/annotations.h"
#include "common/mutex.h"
#include "core/encoder.h"
#include "core/model.h"
#include "nn/kernels.h"
#include "nn/rnn.h"

namespace adamove::core {

/// Which encode route inference takes (DESIGN.md §14). Not configurable:
/// ForwardPlanner::has_raw_path() decides it from the model itself.
///  - kPlan: run the encoder on raw buffers (zero heap allocations per
///    request) — every RNN/LSTM/GRU encoder, stacked or not;
///  - kGraph: walk the autograd graph — encoder families without a raw path
///    (the Transformer) and models without a trajectory encoder.
enum class ForwardMode : uint8_t { kGraph, kPlan };

/// Always kPlan; reads no environment variable. A leftover for the frozen
/// benchmark, which prints it as a header line — removed at the next
/// benchmark revision. The route a model actually takes is
/// ForwardPlanner::has_raw_path() (PredictionService::forward_mode()).
ForwardMode ForwardModeFromEnv();

/// Mutable state for raw-path encodes, owned by one thread at a time (a
/// serving worker keeps one per batch slot). Every buffer keeps its
/// capacity, so once they have grown to the longest window seen, encoding
/// performs zero heap allocations.
struct PlanScratch {
  common::AlignedBuffer<float> inputs;  // {rows, embedding dim} rows
  nn::RawScratch raw;                   // the encoder's step buffers
  std::vector<float> carry;             // the state EncodeInto's run left
  common::AlignedBuffer<float> reps;    // {rows, cols} encode output
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
  std::vector<float> carry;  // SequenceEncoder::ForwardRaw's carry layout
  uint64_t generation = 0;
  nn::kernels::Backend backend = nn::kernels::Backend::kScalar;

  /// Bytes held: the struct plus every buffer's capacity.
  size_t Bytes() const;
};

/// Runs one AdaptableModel's trajectory encoder on raw buffers: the point
/// embedding gathered into a row buffer, then the sequence layer's
/// SequenceEncoder::ForwardRaw. Thread-safe; all mutable buffers live in
/// caller-owned PlanScratch and PrefixState. Weights are read live, so an
/// in-place overwrite is used by the next encode.
///
/// Prefix-state validity: generation() names the live weights. It compares
/// the storage of every encoder parameter (the Parameters() handles taken
/// at construction) with what it last saw, allocation-free, and bumps on a
/// checkpoint hot-swap that reallocated any of it; InvalidateAll() bumps it
/// too. A PrefixState from another generation is stale — so after an
/// in-place overwrite, which keeps the storage, call InvalidateAll().
class ForwardPlanner {
 public:
  explicit ForwardPlanner(const AdaptableModel& model);

  /// Whether inference runs the raw path for this model: it has a
  /// trajectory encoder whose sequence layer has one (carry_size() > 0:
  /// RNN/LSTM/GRU, stacked or not). Fixed at construction; false means the
  /// graph walk serves every request.
  bool has_raw_path() const { return seq_ != nullptr; }

  /// Encodes sample.recent into scratch->reps ({scratch->rows,
  /// scratch->cols}, row k = prefix representation h_k) from the zero
  /// carry, leaving the final state in scratch->carry. Returns false when
  /// there is no raw path or no point; the caller walks the graph instead.
  /// Bit-identical to the graph walk under every backend.
  bool EncodeInto(const data::Sample& sample, PlanScratch* scratch);

  /// EncodeInto that resumes from `state`, the window an earlier call left
  /// there. A hit — state computed under this generation() and the active
  /// kernel backend, its points a point-for-point prefix of sample.recent —
  /// copies state's rows and runs only the new points, starting from
  /// state's carry (an exact repeat runs none). A miss runs the whole
  /// window from the zero carry. Either way the reps are bit-identical to
  /// EncodeInto's, scratch->reused counts the copied rows, and *state then
  /// holds this window. Returns false exactly when EncodeInto would,
  /// leaving *state untouched. The caller must own *state exclusively for
  /// the call.
  bool ExtendInto(const data::Sample& sample, PrefixState* state,
                  PlanScratch* scratch);

  /// Retires every PrefixState. Call after a checkpoint hot-swap.
  void InvalidateAll();

  /// Bumped by InvalidateAll() and when a parameter's storage moved
  /// (checked here first), so it always names the live weights.
  uint64_t generation();

 private:
  /// Runs `points` from `carry` (updated in place) into `out`.
  void Run(std::span<const data::Point> points, float* carry, float* out,
           PlanScratch* scratch) const;

  // Borrowed component pointers (stable: they are unique_ptr members of
  // the model); seq_ is null when the model has no trajectory encoder or
  // its sequence layer has no raw path.
  const PointEmbedding* embedding_ = nullptr;
  const nn::SequenceEncoder* seq_ = nullptr;
  // The encoder's parameters, and the storage generation_ was computed
  // against.
  std::vector<nn::Tensor> params_;
  common::Mutex mu_;
  std::vector<const float*> storage_ ADAMOVE_GUARDED_BY(mu_);
  uint64_t generation_ ADAMOVE_GUARDED_BY(mu_) = 1;
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
  /// use). False when the planner has no raw path; the caller walks the
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
