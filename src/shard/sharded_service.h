#ifndef ADAMOVE_SHARD_SHARDED_SERVICE_H_
#define ADAMOVE_SHARD_SHARDED_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "core/model.h"
#include "core/ptta.h"
#include "serve/prediction_service.h"
#include "serve/session_store.h"
#include "shard/compact_store.h"
#include "shard/user_router.h"

namespace adamove::shard {

struct ShardedServiceConfig {
  /// Shard groups created at construction (ids 0..num_shards-1). Grow or
  /// shrink later with AddShard / RemoveShard.
  int num_shards = 2;
  RouterConfig router;
  /// Per-group serving config (each group runs its own PredictionService
  /// with `service.workers` threads).
  serve::ServiceConfig service;
  /// Per-group session-store config. `cold_tier` is owned by this layer:
  /// each group gets its own CompactStore cold tier (unless `cold_tier`
  /// below is false).
  serve::SessionStoreConfig store;
  CompactStoreConfig compact;
  /// Attach a CompactStore behind every group's session store, turning the
  /// LRU cap into a hot-tier bound instead of a forget threshold.
  bool cold_tier = true;
};

/// Consistent-hash sharded serving (DESIGN.md §12): a UserRouter in front
/// of N in-process shard groups, each group owning one CompactStore (cold
/// tier), one SessionStore (hot tier) and one PredictionService. The router
/// places every user deterministically; topology changes move a bounded
/// set of users (~K/N) through an explicit migration protocol.
///
/// Rebalance protocol (pinned by tests/shard/sharded_service_test):
///   1. under the routing mutex: build the next ring, mark every known user
///      whose placement changes as in-transit, swap the ring and bump the
///      ring generation;
///   2. requests admitted from now on route by the new ring; any user whose
///      placement differs between the old and new rings is served
///      frozen-only (kDegraded — valid base-model scores, no state writes
///      on the wrong group). The old-vs-new comparison, not the in-transit
///      set, is the freeze predicate, so it also covers users the swap-time
///      scan could not see because their first-ever request was still in
///      flight;
///   3. wait until every request admitted to the source group under a
///      pre-swap ring generation has completed. Each group keeps in-flight
///      counts keyed by admission generation, decremented by a per-request
///      completion hook — the barrier is per-generation, so out-of-order
///      completions of post-swap requests can never satisfy it on behalf of
///      a pre-swap request still in flight;
///   4. re-derive the moved set from what the source group owns *now*
///      (state created by late pre-swap requests included), move each
///      user's complete state (hot or cold) to its new group and clear the
///      in-transit marks — the users resume the adapted path.
/// Requests in flight across the swap therefore resolve to exactly kOk
/// (admitted before the swap, state still on the source) or kDegraded
/// (admitted after, frozen-only) — never a crash, never forked state.
///
/// Topology changes are serialized: AddShard/RemoveShard hold a dedicated
/// admin mutex across the whole swap→drain→migrate sequence, so a
/// migration's target group can never be concurrently marked draining.
/// Admission itself never blocks under a lock — Submit resolves routing
/// under the routing mutex but performs the (potentially blocking, on a
/// full queue) enqueue after releasing it, keeping one full group from
/// stalling admissions to the others.
///
/// Removed groups are drained (their PredictionService keeps running with
/// nothing routed to it) and destroyed only at Shutdown, so a raw Group
/// pointer obtained at admission never dangles.
class ShardedService {
 public:
  /// Per-group capacity and serving counters.
  struct GroupStats {
    int shard_id = 0;
    bool draining = false;
    serve::ServiceStats service;
    size_t hot_users = 0;
    size_t cold_users = 0;
    /// Dense bytes of hot-resident state (OnlineAdapter accounting).
    size_t hot_bytes = 0;
    /// Compact payload bytes of cold state.
    uint64_t cold_blob_bytes = 0;
    /// Arena bytes actually reserved for the cold tier (slabs + oversize).
    uint64_t cold_reserved_bytes = 0;
    uint64_t hydrations = 0;
    uint64_t dehydrations = 0;
    /// Elastic-adaptation backlog (DESIGN.md §16): hot-resident users with
    /// buffered pending deltas, and the deltas themselves. Migration and
    /// dehydration carry this state losslessly, so it is a live gauge, not
    /// a loss counter.
    size_t dirty_users = 0;
    size_t pending_deltas = 0;
  };

  ShardedService(core::AdaptableModel& model,
                 const ShardedServiceConfig& config);
  ~ShardedService();

  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  /// Routes and enqueues one request. In-transit users (and every request
  /// while a `serve.router_lookup` fault fires) are admitted frozen-only:
  /// valid base-model scores, kDegraded, no state touched.
  std::future<serve::Prediction> Submit(data::Sample sample);

  /// Adds a shard group, migrating the users the new ring assigns to it.
  /// Returns the new shard id. Topology changes are serialized against
  /// each other (safe to call from any thread, including while serving).
  int AddShard();

  /// Drains and removes a shard group, migrating all of its users to their
  /// new owners. False (and no change) for an unknown/draining id or when
  /// it is the last live shard. Serialized like AddShard.
  bool RemoveShard(int shard_id);

  /// Live (non-draining) shard ids, ascending.
  std::vector<int> Shards() const;

  /// Current placement of a user (live ring).
  int ShardFor(int64_t user) const;

  /// Per-group stats, live groups first, then drained ones, each ascending
  /// by shard id.
  std::vector<GroupStats> Stats() const;

  /// Aggregate capacity diagnostics across live groups, reported through
  /// the core stats type: resident_bytes = hot-tier bytes + cold compact
  /// payload bytes (the number BENCH_capacity.json divides by users).
  core::AdapterStats CapacityStats() const;

  /// Persists every live group to `<prefix>.shard<ID>.hot` (SessionStore
  /// snapshot) and `<prefix>.shard<ID>.cold` (CompactStore file), one
  /// atomic durable_io commit per file. First failure aborts the pass.
  common::IoResult Snapshot(const std::string& prefix) const;

  /// Restores groups written by Snapshot with the same prefix and shard
  /// ids. Missing files fail; per-file torn tails follow the underlying
  /// readers' semantics.
  common::IoResult Restore(const std::string& prefix);

  /// Users currently marked in-transit (0 in steady state).
  size_t InTransitCount() const;

  uint64_t MigratedUsers() const {
    return migrated_users_.load(std::memory_order_relaxed);
  }

  /// Requests admitted through the router-fault fallback path.
  uint64_t RouterFallbacks() const {
    return router_fallbacks_.load(std::memory_order_relaxed);
  }

  /// Stops every group's service (drained groups included). Idempotent;
  /// also run by the destructor.
  void Shutdown();

 private:
  struct Group {
    int shard_id = 0;
    /// Mutated only under the routing mutex (the group object itself lives
    /// until Shutdown, so pointers to it never dangle).
    bool draining = false;
    /// In-flight requests keyed by the ring generation they were admitted
    /// under. Incremented at admission (inflight_mu nests inside mu_),
    /// decremented by the per-request completion hook; an entry is erased
    /// when its count reaches zero, so begin() is the oldest generation
    /// still in flight — exactly what WaitDrained polls.
    mutable common::Mutex inflight_mu;
    std::map<uint64_t, uint64_t> inflight ADAMOVE_GUARDED_BY(inflight_mu);
    std::unique_ptr<CompactStore> cold;
    std::unique_ptr<serve::SessionStore> store;
    std::unique_ptr<serve::PredictionService> service;
  };

  std::unique_ptr<Group> MakeGroup(int shard_id);
  Group* LiveGroupLocked(int shard_id) const ADAMOVE_REQUIRES(mu_);
  /// All users a group owns, hot and cold, ascending and deduplicated.
  static std::vector<int64_t> OwnedUsers(const Group& group);
  /// Blocks until no request admitted to `group` under a generation
  /// <= `gen_barrier` is still in flight (rebalance protocol step 3).
  static void WaitDrained(const Group& group, uint64_t gen_barrier);
  /// Moves every user the (drained) group owns but the current ring places
  /// elsewhere to its owner, clearing in-transit marks as state lands.
  /// Call with admin_mu_ held but not mu_.
  void MigrateMisplaced(Group& source);

  core::AdaptableModel& model_;
  ShardedServiceConfig config_;

  /// Serializes AddShard/RemoveShard end to end. Lock order:
  /// admin_mu_ -> mu_ -> Group::inflight_mu (each optional, never inverted).
  common::Mutex admin_mu_;

  mutable common::Mutex mu_;
  /// Copy-on-write ring: swapped whole under mu_, never mutated in place.
  std::shared_ptr<const UserRouter> router_ ADAMOVE_GUARDED_BY(mu_);
  /// The pre-swap ring, non-null only while a rebalance is migrating: a
  /// user the two rings place differently is served frozen-only (protocol
  /// step 2).
  std::shared_ptr<const UserRouter> prev_router_ ADAMOVE_GUARDED_BY(mu_);
  /// Bumped at every ring swap; admissions are tagged with the generation
  /// they observed.
  uint64_t ring_gen_ ADAMOVE_GUARDED_BY(mu_) = 0;
  /// All groups ever created (draining ones included — see class comment).
  std::vector<std::unique_ptr<Group>> groups_ ADAMOVE_GUARDED_BY(mu_);
  std::unordered_set<int64_t> in_transit_ ADAMOVE_GUARDED_BY(mu_);
  int next_shard_id_ ADAMOVE_GUARDED_BY(mu_) = 0;
  bool shutdown_ ADAMOVE_GUARDED_BY(mu_) = false;

  /// Admissions past the shutdown_ check whose enqueue (outside mu_) has
  /// not landed yet; Shutdown waits for zero before stopping the services.
  std::atomic<size_t> admitting_{0};

  std::atomic<uint64_t> migrated_users_{0};
  std::atomic<uint64_t> router_fallbacks_{0};
};

}  // namespace adamove::shard

#endif  // ADAMOVE_SHARD_SHARDED_SERVICE_H_
