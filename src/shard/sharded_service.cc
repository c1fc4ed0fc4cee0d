#include "shard/sharded_service.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"

namespace adamove::shard {

namespace {

/// One snapshot file per group, covering its hot and cold tiers.
std::string GroupPath(const std::string& prefix, int shard_id) {
  return prefix + ".shard" + std::to_string(shard_id);
}

}  // namespace

ShardedService::ShardedService(core::AdaptableModel& model,
                               const ShardedServiceConfig& config)
    : model_(model), config_(config) {
  ADAMOVE_CHECK_GT(config_.num_shards, 0);
  common::MutexLock lock(mu_);
  auto router = std::make_shared<UserRouter>(config_.router);
  for (int i = 0; i < config_.num_shards; ++i) {
    const int shard_id = next_shard_id_++;
    groups_.push_back(MakeGroup(shard_id));
    router->AddShard(shard_id);
  }
  router_ = std::move(router);
}

ShardedService::~ShardedService() { Shutdown(); }

std::unique_ptr<ShardedService::Group> ShardedService::MakeGroup(
    int shard_id) {
  auto group = std::make_unique<Group>();
  group->shard_id = shard_id;
  serve::SessionStoreConfig store_config = config_.store;
  if (config_.cold_tier) {
    group->cold = std::make_unique<CompactStore>(config_.compact);
    store_config.cold_tier = group->cold.get();
  }
  group->store = std::make_unique<serve::SessionStore>(store_config);
  group->service = std::make_unique<serve::PredictionService>(
      model_, *group->store, config_.service);
  return group;
}

ShardedService::Group* ShardedService::LiveGroupLocked(int shard_id) const {
  for (const auto& group : groups_) {
    if (group->shard_id == shard_id && !group->draining) return group.get();
  }
  return nullptr;
}

std::future<serve::Prediction> ShardedService::Submit(data::Sample sample) {
  Group* group = nullptr;
  bool frozen_only = false;
  uint64_t gen = 0;
  {
    common::MutexLock lock(mu_);
    ADAMOVE_CHECK(!shutdown_);
    // Simulated routing failure (stale ring read, mis-route): the request
    // is admitted to a deterministic fallback group frozen-only — valid
    // base-model scores, kDegraded, and crucially no state is created on a
    // group that may not own the user.
    if (common::FaultPoint("serve.router_lookup")) {
      for (const auto& g : groups_) {
        if (!g->draining) {
          group = g.get();
          break;
        }
      }
      frozen_only = true;
      router_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    } else {
      group = LiveGroupLocked(router_->ShardFor(sample.user));
      // A user mid-rebalance is served frozen-only until its state lands
      // on the new owner (protocol step 2). Comparing rings — rather than
      // consulting the in-transit set — also freezes users whose first
      // request was in flight at the swap and who therefore could not be
      // marked.
      frozen_only = prev_router_ != nullptr &&
                    prev_router_->ShardFor(sample.user) !=
                        router_->ShardFor(sample.user);
    }
    ADAMOVE_CHECK(group != nullptr);
    gen = ring_gen_;
    {
      common::MutexLock inflight_lock(group->inflight_mu);
      group->inflight[gen] += 1;
    }
    admitting_.fetch_add(1);
  }
  // The enqueue happens outside mu_ (it may block on a full queue, and must
  // not stall other groups' admissions or admin operations). The group
  // outlives admission and its in-flight entry is already recorded, so the
  // drain barrier covers this request even though the enqueue itself races
  // the ring swap.
  auto on_complete = [group, gen] {
    common::MutexLock lock(group->inflight_mu);
    const auto it = group->inflight.find(gen);
    ADAMOVE_CHECK(it != group->inflight.end());
    ADAMOVE_CHECK_GT(it->second, 0u);
    if (--it->second == 0) group->inflight.erase(it);
  };
  std::future<serve::Prediction> result =
      frozen_only ? group->service->SubmitFrozen(std::move(sample),
                                                 std::move(on_complete))
                  : group->service->Submit(std::move(sample),
                                           std::move(on_complete));
  admitting_.fetch_sub(1);
  return result;
}

std::vector<int64_t> ShardedService::OwnedUsers(const Group& group) {
  std::vector<int64_t> users = group.store->ResidentUsers();
  if (group.cold != nullptr) {
    const std::vector<int64_t> cold_users = group.cold->Users();
    users.insert(users.end(), cold_users.begin(), cold_users.end());
  }
  std::sort(users.begin(), users.end());
  users.erase(std::unique(users.begin(), users.end()), users.end());
  return users;
}

void ShardedService::WaitDrained(const Group& group, uint64_t gen_barrier) {
  // Per-generation in-flight counts, not the aggregate accounted() ledger:
  // the source group keeps admitting (and completing, out of order) new
  // requests after the swap, so only a barrier that identifies pre-swap
  // admissions proves they have all resolved. The map's oldest generation
  // must itself move past the barrier.
  for (;;) {
    {
      common::MutexLock lock(group.inflight_mu);
      const auto oldest = group.inflight.begin();
      if (oldest == group.inflight.end() || oldest->first > gen_barrier) {
        return;
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void ShardedService::MigrateMisplaced(Group& source) {
  // The moved set is re-derived after the drain from what the group owns
  // *now*: a pre-swap request that was the first ever for its user created
  // state the swap-time scan could not see, and it must move too or a later
  // rebalance would re-inject it over a fresher copy.
  for (int64_t user : OwnedUsers(source)) {
    Group* target = nullptr;
    {
      common::MutexLock lock(mu_);
      const int target_id = router_->ShardFor(user);
      if (!source.draining && target_id == source.shard_id) continue;
      target = LiveGroupLocked(target_id);
    }
    // admin_mu_ is held by our caller, so no concurrent topology change can
    // mark `target` draining between the lookup and the inject.
    ADAMOVE_CHECK(target != nullptr);
    core::OnlineAdapter::UserSnapshot snap;
    if (source.store->ExtractUser(user, &snap)) {
      target->store->InjectUser(std::move(snap));
      migrated_users_.fetch_add(1, std::memory_order_relaxed);
    }
    common::MutexLock lock(mu_);
    in_transit_.erase(user);
  }
}

int ShardedService::AddShard() {
  // One topology change at a time, held across swap→drain→migrate: the
  // target a migration injects into can never be concurrently drained.
  common::MutexLock admin_lock(admin_mu_);
  int shard_id = 0;
  uint64_t barrier = 0;
  std::vector<Group*> sources;
  {
    common::MutexLock lock(mu_);
    ADAMOVE_CHECK(!shutdown_);
    shard_id = next_shard_id_++;
    groups_.push_back(MakeGroup(shard_id));
    auto next = std::make_shared<UserRouter>(*router_);
    next->AddShard(shard_id);
    // Known users the new ring hands to the new shard (~K/N of them — the
    // consistent-hash movement bound) go in transit before the swap. Every
    // pre-existing live group is a drain source: state for users the scan
    // could not see (first request still in flight) may surface on any of
    // them, and MigrateMisplaced re-derives the moved set after the drain.
    for (const auto& group : groups_) {
      if (group->draining || group->shard_id == shard_id) continue;
      for (int64_t user : OwnedUsers(*group)) {
        if (next->ShardFor(user) == shard_id) in_transit_.insert(user);
      }
      sources.push_back(group.get());
    }
    prev_router_ = router_;
    router_ = std::move(next);
    barrier = ring_gen_++;  // pre-swap admissions carry gen <= barrier
  }
  for (Group* source : sources) {
    WaitDrained(*source, barrier);
    MigrateMisplaced(*source);
  }
  common::MutexLock lock(mu_);
  prev_router_.reset();
  return shard_id;
}

bool ShardedService::RemoveShard(int shard_id) {
  common::MutexLock admin_lock(admin_mu_);  // see AddShard
  Group* source = nullptr;
  uint64_t barrier = 0;
  {
    common::MutexLock lock(mu_);
    ADAMOVE_CHECK(!shutdown_);
    source = LiveGroupLocked(shard_id);
    if (source == nullptr) return false;
    size_t live = 0;
    for (const auto& group : groups_) {
      if (!group->draining) ++live;
    }
    if (live <= 1) return false;  // routing needs at least one shard
    source->draining = true;
    auto next = std::make_shared<UserRouter>(*router_);
    next->RemoveShard(shard_id);
    for (int64_t user : OwnedUsers(*source)) in_transit_.insert(user);
    prev_router_ = router_;
    router_ = std::move(next);
    barrier = ring_gen_++;
  }
  // The swap already unroutes the group; once its pre-swap requests have
  // completed, every user it still holds moves to its new owner. The
  // drained group's service keeps running (empty) until Shutdown so
  // admission-time pointers never dangle.
  WaitDrained(*source, barrier);
  MigrateMisplaced(*source);
  common::MutexLock lock(mu_);
  prev_router_.reset();
  return true;
}

std::vector<int> ShardedService::Shards() const {
  common::MutexLock lock(mu_);
  return router_->Shards();
}

int ShardedService::ShardFor(int64_t user) const {
  common::MutexLock lock(mu_);
  return router_->ShardFor(user);
}

size_t ShardedService::InTransitCount() const {
  common::MutexLock lock(mu_);
  return in_transit_.size();
}

std::vector<ShardedService::GroupStats> ShardedService::Stats() const {
  std::vector<GroupStats> all;
  common::MutexLock lock(mu_);
  all.reserve(groups_.size());
  for (const auto& group : groups_) {
    GroupStats s;
    s.shard_id = group->shard_id;
    s.draining = group->draining;
    s.service = group->service->Stats();
    s.hot_users = group->store->UserCount();
    s.hot_bytes = group->store->ResidentBytes();
    s.hydrations = group->store->HydrationCount();
    s.dehydrations = group->store->DehydrationCount();
    s.dirty_users = group->store->DirtyUserCount();
    s.pending_deltas = group->store->PendingDeltaCount();
    if (group->cold != nullptr) {
      const CompactStore::Stats cold = group->cold->GetStats();
      s.cold_users = cold.users;
      s.cold_blob_bytes = cold.blob_bytes;
      s.cold_reserved_bytes = cold.arena.reserved_bytes;
    }
    all.push_back(std::move(s));
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const GroupStats& a, const GroupStats& b) {
                     if (a.draining != b.draining) return !a.draining;
                     return a.shard_id < b.shard_id;
                   });
  return all;
}

core::AdapterStats ShardedService::CapacityStats() const {
  core::AdapterStats stats;
  for (const GroupStats& s : Stats()) {
    if (s.draining) continue;
    stats.resident_bytes += static_cast<int64_t>(s.hot_bytes) +
                            static_cast<int64_t>(s.cold_blob_bytes);
  }
  return stats;
}

common::IoResult ShardedService::Snapshot(const std::string& prefix) const {
  // Collect the live groups under the lock, run the (slow, fault-prone)
  // file commits outside it — group objects outlive Shutdown only, and
  // Snapshot racing Shutdown is excluded by the caller contract.
  std::vector<Group*> live;
  {
    common::MutexLock lock(mu_);
    for (const auto& group : groups_) {
      if (!group->draining) live.push_back(group.get());
    }
  }
  for (Group* group : live) {
    common::IoResult written =
        group->store->Snapshot(GroupPath(prefix, group->shard_id));
    if (!written) return written;
  }
  return common::IoResult::Ok();
}

common::IoResult ShardedService::Restore(const std::string& prefix) {
  std::vector<Group*> live;
  {
    common::MutexLock lock(mu_);
    for (const auto& group : groups_) {
      if (!group->draining) live.push_back(group.get());
    }
  }
  for (Group* group : live) {
    common::IoResult restored =
        group->store->Restore(GroupPath(prefix, group->shard_id));
    if (!restored) return restored;
  }
  return common::IoResult::Ok();
}

void ShardedService::Shutdown() {
  std::vector<Group*> all;
  {
    common::MutexLock lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
    for (const auto& group : groups_) all.push_back(group.get());
  }
  // Admissions that passed the shutdown_ check under mu_ may still be
  // enqueuing outside the lock; let them land before the services stop.
  while (admitting_.load() != 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  // Outside the lock: Shutdown drains each group's queue (admission is
  // already closed by the shutdown_ flag above).
  for (Group* group : all) group->service->Shutdown();
}

}  // namespace adamove::shard
