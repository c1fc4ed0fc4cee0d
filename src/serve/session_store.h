#ifndef ADAMOVE_SERVE_SESSION_STORE_H_
#define ADAMOVE_SERVE_SESSION_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/durable_io.h"
#include "common/mutex.h"
#include "core/config.h"
#include "core/model.h"
#include "core/online_adapter.h"

namespace adamove::serve {

/// Second storage tier behind a SessionStore: evicted users are dehydrated
/// into it instead of dropped, and users absent from the hot tier are
/// hydrated back out of it on first touch. Implemented by the shard
/// subsystem's CompactStore (each user's compact blob in one exact-size
/// heap block — DESIGN.md §12); the interface lives here so serve/ does not
/// depend on shard/. A user lives in at most one tier: the store moves a
/// user between tiers only under the user's shard mutex, and drops any cold
/// copy before it installs hot state (InjectUser, Restore).
///
/// Concurrency contract: every call is invoked while the *caller's* shard
/// mutex is held, so an implementation must use only its own locks and must
/// never call back into the SessionStore (lock order: shard mutex, then
/// cold-tier internals — acyclic by construction).
class ColdTier {
 public:
  virtual ~ColdTier() = default;

  /// Removes `user`'s dehydrated state and returns it via `out`; false when
  /// the tier holds nothing for the user (out untouched).
  virtual bool Take(int64_t user, core::OnlineAdapter::UserSnapshot* out) = 0;

  /// Accepts a user's complete exported state (replacing any previous
  /// dehydrated state for that user).
  virtual void Accept(core::OnlineAdapter::UserSnapshot&& snap) = 0;

  /// Appends a copy of the state of every held user that `wanted` selects
  /// to `out`, removing nothing — the store's Snapshot reads the tier
  /// through this, one shard at a time. `wanted` must not call into the
  /// tier.
  virtual void CopyUsers(
      const std::function<bool(int64_t)>& wanted,
      std::vector<core::OnlineAdapter::UserSnapshot>* out) const = 0;
};

struct SessionStoreConfig {
  /// PTTA knowledge-base parameters of every per-shard adapter.
  core::PttaConfig ptta;
  /// Freshness window forwarded to core::OnlineAdapter.
  int64_t max_age_seconds = 5 * 72 * 3600;
  /// Mutex stripes; a user's state lives in shard (hash(user) % num_shards).
  int num_shards = 16;
  /// Resident-user cap across the whole store (0 = unbounded). Enforced
  /// per shard as ceil(max_resident_users / num_shards) via LRU eviction,
  /// which bounds memory at ~cap · 32 patterns · hidden floats.
  size_t max_resident_users = 0;
  /// Optional second tier (not owned; must outlive the store). When set,
  /// LRU eviction dehydrates the victim into it and a miss on the adapted
  /// path hydrates from it, so the cap bounds the *hot* footprint without
  /// forgetting anyone. Null = today's drop-on-evict behaviour.
  ColdTier* cold_tier = nullptr;
  /// Ignored. Every pattern is stored q8 from ingest on (core::OnlineAdapter,
  /// DESIGN.md §4.3), which is what this switch used to select; the field
  /// remains only because the frozen benchmark revision assigns it.
  bool canonicalize_patterns = false;
};

/// How one adapted prediction was actually produced — the degradation
/// outcome the serving layer turns into per-request accounting.
enum class AdaptStatus : uint8_t {
  /// Normal path: patterns ingested, prediction from the user's fresh state.
  kAdapted,
  /// Session-store lookup faulted (simulated state loss): no per-user state
  /// was read or written; the scores are the base model's frozen logits.
  kStateUnavailable,
  /// PTTA pattern generation faulted: this request's transitions were not
  /// ingested; the prediction still used the user's *existing* (stale)
  /// knowledge base.
  kStaleState,
  /// Warm start in progress and this user's durable state has not been
  /// restored yet: the base model answered, and no fresh state was created
  /// (a fresh knowledge base would be clobbered — or worse, merged — when
  /// the user's snapshot frame arrives).
  kWarmStartPending,
};

/// Ignored: every request adapts inline, whichever value is passed. Both
/// values, BatchAdaptOptions and BatchAdaptStats remain only because the
/// frozen benchmark revision passes them to the five-argument
/// BatchObserveAndPredictEncoded (ROADMAP item 1's deletion list).
enum class AdaptExecMode : uint8_t { kInline, kInlineElastic };

struct BatchAdaptOptions {
  AdaptExecMode mode = AdaptExecMode::kInline;
};

struct BatchAdaptStats {};

/// On-disk serving snapshots: a durable_io framed file (DESIGN.md §11), the
/// one state file of a store — hot and cold users alike. Frame 0 is a
/// header {format version 2, pattern dim, user count}; every further frame
/// is one user's knowledge base in OnlineAdapter's wire encoding (the same
/// bytes a cold-tier blob holds).
inline constexpr uint32_t kSnapshotMagic = 0xADA50001;

/// Accounting of one Snapshot or Restore pass.
struct SnapshotStats {
  size_t users = 0;
  size_t patterns = 0;
  /// Snapshot: exact file size written. Restore: bytes of user payload
  /// decoded.
  uint64_t bytes = 0;
  /// Restore only: the file ended mid-frame (crash-truncated); everything
  /// before the tear was imported.
  bool torn_tail = false;
};

/// Sharded per-user adapter state for the serving path. Each shard owns one
/// core::OnlineAdapter (whose state map is keyed by user) plus an LRU list
/// of its resident users; shard mutexes are independent, so a predict for
/// one user runs concurrently with Observe for users on other shards — the
/// "millions of users" scaling story is stripe parallelism plus bounded
/// residency, not a global lock.
class SessionStore {
 public:
  explicit SessionStore(const SessionStoreConfig& config);

  /// Ingests one observed transition (shard-locked; touches LRU).
  void Observe(int64_t user, const std::vector<float>& pattern,
               int64_t next_location, int64_t timestamp);

  /// Borrowed view of pre-computed prefix representations ({rows, cols},
  /// row-major, row k = prefix representation h_k). A view rather than a
  /// Tensor so the zero-allocation serving path can feed raw-encoded
  /// buffers (core::PlanScratch::reps) straight into the store without
  /// materializing a Tensor per request (DESIGN.md §14).
  struct RepsView {
    const float* data = nullptr;
    int64_t rows = 0;
    int64_t cols = 0;

    RepsView() = default;
    RepsView(const float* d, int64_t r, int64_t c)
        : data(d), rows(r), cols(c) {}
    explicit RepsView(const nn::Tensor& reps)
        : data(reps.data().data()), rows(reps.rows()), cols(reps.cols()) {}

    /// The query pattern: the final row (the current trajectory state).
    const float* query() const { return data + (rows - 1) * cols; }
  };

  /// Reusable per-worker state of ObserveAndPredictInto: the pattern arena
  /// and rebuild jobs phase 1 collects, and the scores phase 2 writes. Every
  /// container keeps its capacity, so a warm call allocates nothing unless
  /// the user's knowledge base grows.
  using RequestScratch = core::OnlineAdapter::PredictScratch;

  /// core::OnlineAdapter::ObserveAndPredict for one request against the
  /// sharded store, from pre-computed prefix representations ({T, H}, rows
  /// aligned with sample.recent — split from the encoder forward so the
  /// serving worker can time encode and adapt separately). A request whose
  /// window holds one point ingests nothing: it is a pure predict for that
  /// user at sample.target.timestamp. The scores land in scratch->scores.
  ///
  /// Two phases. Phase 1 runs under the user's shard lock: the fault
  /// probes, warm gate, hydration, LRU touch and pattern ingestion, then it
  /// *collects* the adjusted-column rebuild jobs, copying the kept patterns
  /// into scratch->arena (core::OnlineAdapter::CollectRebuildJobs). Phase 2
  /// scores them after the lock is released (ScoreCollectedJobsInto); a
  /// degraded request carries zero jobs, so the frozen fallback is the same
  /// call. The copy makes phase 2 immune to anything that happens to the
  /// user's state once the lock is gone.
  ///
  /// Never fails: under an armed `serve.session_lookup` /
  /// `serve.ptta_generate` fault the request degrades (see AdaptStatus) but
  /// still gets real-model scores; with no faults armed the status is
  /// kAdapted.
  AdaptStatus ObserveAndPredictInto(const core::AdaptableModel& model,
                                    const data::Sample& sample, RepsView reps,
                                    RequestScratch* scratch);

  /// One request of a BatchObserveAndPredictEncoded call: the sample and its
  /// pre-computed prefix representations, both borrowed (must outlive the
  /// call).
  struct BatchRequest {
    const data::Sample* sample = nullptr;
    RepsView reps;
  };

  /// ObserveAndPredictInto over `requests` in order; each request's scores
  /// and status equal serving it alone. `statuses`, when non-null, is
  /// resized to requests.size() with request i's AdaptStatus at index i.
  /// Kept for the frozen benchmark revision and the tests that drive the
  /// store directly (ROADMAP item 1).
  std::vector<std::vector<float>> BatchObserveAndPredictEncoded(
      const core::AdaptableModel& model,
      const std::vector<BatchRequest>& requests,
      std::vector<AdaptStatus>* statuses = nullptr);

  /// The overload above; `options` and `adapt_stats` are ignored (see
  /// AdaptExecMode).
  std::vector<std::vector<float>> BatchObserveAndPredictEncoded(
      const core::AdaptableModel& model,
      const std::vector<BatchRequest>& requests,
      const BatchAdaptOptions& /*options*/, std::vector<AdaptStatus>* statuses,
      BatchAdaptStats* /*adapt_stats*/) {
    return BatchObserveAndPredictEncoded(model, requests, statuses);
  }

  /// Always 0: no observation waits outside a knowledge base. Kept only
  /// because the frozen benchmark revision reads it.
  size_t PendingDeltaCount() const { return 0; }

  /// Drops one user's state wherever it lives — hot tier and cold tier
  /// (no-op if absent from both).
  void Forget(int64_t user);

  /// Removes `user`'s complete state from the store — hot tier first, then
  /// the cold tier — returning it via `out`. False when the user is unknown
  /// to both tiers (out untouched). InjectUser installs the state again, in
  /// this store or another one.
  bool ExtractUser(int64_t user, core::OnlineAdapter::UserSnapshot* out);

  /// Installs a complete user state into the hot tier (replacing any
  /// previous state in either tier, touching the LRU). Empty snapshots are
  /// dropped.
  void InjectUser(core::OnlineAdapter::UserSnapshot&& snap);

  /// Force-dehydrates one resident user into the cold tier, exactly as LRU
  /// eviction would. False when no cold tier is configured or the user is
  /// not hot-resident. Exposed for the capacity bench and tests.
  bool EvictToCold(int64_t user);

  /// All hot-resident users across shards, ascending.
  std::vector<int64_t> ResidentUsers() const;

  /// Dense footprint of all hot-resident state, summed over shards
  /// (core::OnlineAdapter::ResidentBytes accounting).
  size_t ResidentBytes() const;

  /// Persists every user's knowledge base — hot and cold tier — to `path`
  /// via durable_io's atomic commit. Shards are captured one at a time
  /// under their own mutex: the shard's hot users, then the cold-tier users
  /// that hash to it (ColdTier::CopyUsers). A user changes tier only under
  /// its shard mutex, so each user is captured exactly once, in a state it
  /// really held at some instant of the pass, while serving on the other
  /// shards never stalls. Frames are in ascending user order within a
  /// shard, so identical state writes identical bytes whatever its tiers.
  /// Subject to the io.snapshot_write / io.snapshot_fsync fault points: a
  /// failed commit leaves the previous durable snapshot untouched.
  common::IoResult Snapshot(const std::string& path,
                            SnapshotStats* stats = nullptr) const;

  /// Restores user state from a snapshot, frame by frame, locking only the
  /// target user's shard per frame — safe to run concurrently with serving
  /// (the warm-start gate keeps not-yet-restored users off the adapted
  /// path). Each restored user replaces any in-memory state in either tier
  /// and touches the LRU, so the residency cap holds during restore too
  /// (eviction dehydrates the overflow into the cold tier). Every frame is
  /// checked before it is installed: it must decode, name a user no
  /// earlier frame named, and hold only patterns of the header's dimension.
  /// A torn tail imports the verified prefix and reports ok
  /// (stats->torn_tail); CRC, decode or check failures import the verified
  /// prefix and return the structured error — never UB, never a
  /// half-imported user. A file of another format version imports nothing.
  common::IoResult Restore(const std::string& path,
                           SnapshotStats* stats = nullptr);

  /// Warm-start gate. While active, ObserveAndPredictInto serves
  /// users without resident state the frozen base model (AdaptStatus::
  /// kWarmStartPending) instead of growing fresh state that an in-flight
  /// Restore would clobber. Users whose frames have landed get the adapted
  /// path immediately — recovery is progressive, not all-or-nothing.
  void BeginWarmStart() {
    warming_.store(true, std::memory_order_release);
  }
  void EndWarmStart() { warming_.store(false, std::memory_order_release); }
  bool warm_starting() const {
    return warming_.load(std::memory_order_acquire);
  }

  /// Distinct resident users across all shards.
  size_t UserCount() const;

  /// Stored patterns for one user (0 if evicted/unknown).
  size_t PatternCount(int64_t user) const;

  /// Users dropped by the LRU cap so far (dehydrated, not lost, when a cold
  /// tier is configured).
  uint64_t EvictionCount() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  /// Users dehydrated into / rehydrated out of the cold tier so far.
  uint64_t DehydrationCount() const {
    return dehydrations_.load(std::memory_order_relaxed);
  }
  uint64_t HydrationCount() const {
    return hydrations_.load(std::memory_order_relaxed);
  }

  /// SessionStoreConfig::max_resident_users (0 = unbounded) — the residency
  /// policy the serving encoder's prefix state follows too.
  size_t max_resident_users() const { return config_.max_resident_users; }

  /// Shard index of a user — exposed so tests can construct colliding and
  /// non-colliding user sets deterministically.
  int ShardOf(int64_t user) const;

 private:
  /// One mutex stripe. The adapter (thread-compatible by design — see
  /// core::OnlineAdapter's contract) and the LRU bookkeeping are guarded by
  /// the shard mutex; the annotations make "touched shard state without
  /// shard.mu" a compile error under ADAMOVE_ANALYZE=ON.
  struct Shard {
    mutable common::Mutex mu;
    core::OnlineAdapter adapter ADAMOVE_GUARDED_BY(mu);
    /// Most-recently-used first; back() is the eviction victim.
    std::list<int64_t> lru ADAMOVE_GUARDED_BY(mu);
    std::unordered_map<int64_t, std::list<int64_t>::iterator> lru_pos
        ADAMOVE_GUARDED_BY(mu);

    Shard(const core::PttaConfig& ptta, int64_t max_age_seconds)
        : adapter(ptta, max_age_seconds) {}
  };

  /// Moves `user` to the LRU front, inserting if new; evicts the back of
  /// the list past the per-shard cap (dehydrating the victim into the cold
  /// tier when one is configured).
  void TouchLocked(Shard& shard, int64_t user) ADAMOVE_REQUIRES(shard.mu);

  /// Hydrates `user` from the cold tier when the hot tier misses. Returns
  /// false only when an armed `core.state_hydrate` fault blocked the
  /// hydration attempt — by contract the caller must then degrade without
  /// mutating any state (no LRU touch, no ingest, no tier change). The
  /// fault is probed *before* the tier is read, so a failed hydration
  /// leaves both tiers exactly as they were — conservatively, even a
  /// fresh-user miss degrades while the fault is armed, since telling the
  /// two apart would itself require reading the tier.
  bool EnsureResidentLocked(Shard& shard, int64_t user)
      ADAMOVE_REQUIRES(shard.mu);

  /// Phase 1 of ObserveAndPredictInto, under the user's shard lock (taken
  /// and released here): everything up to the collected rebuild jobs.
  AdaptStatus IngestAndCollect(const data::Sample& sample, RepsView reps,
                               RequestScratch* scratch);

  /// Installs `snap` as its user's hot state (InjectUser, Restore): drops
  /// any cold copy first, so the user lives in one tier, then touches the
  /// LRU and adopts.
  void AdoptLocked(Shard& shard, core::OnlineAdapter::UserSnapshot&& snap)
      ADAMOVE_REQUIRES(shard.mu);

  SessionStoreConfig config_;
  size_t per_shard_cap_ = 0;  // 0 = unbounded
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> dehydrations_{0};
  std::atomic<uint64_t> hydrations_{0};
  /// Warm-start gate (see BeginWarmStart); read on the hot path with one
  /// relaxed-ish atomic load, so normal serving pays nothing for it.
  std::atomic<bool> warming_{false};
};

}  // namespace adamove::serve

#endif  // ADAMOVE_SERVE_SESSION_STORE_H_
