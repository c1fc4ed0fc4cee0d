#include "shard/sharded_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "common/qfloat.h"
#include "common/rng.h"
#include "core/lightmob.h"
#include "serve/session_store.h"
#include "shard/compact_store.h"
#include "tests/serve/predict_only.h"

namespace adamove::shard {
namespace {

core::ModelConfig SmallConfig() {
  core::ModelConfig c;
  c.num_locations = 12;
  c.num_users = 32;  // headroom: streams here go up to 16 distinct users
  c.hidden_size = 8;
  c.location_emb_dim = 4;
  c.time_emb_dim = 4;
  c.user_emb_dim = 2;
  c.lambda = 0.0;
  return c;
}

std::vector<data::Sample> MakeStream(int users, int steps_per_user) {
  std::vector<data::Sample> stream;
  for (int u = 0; u < users; ++u) {
    std::vector<data::Point> window;
    int64_t t = 1333238400 + u * 100;
    for (int s = 0; s < steps_per_user; ++s) {
      const int64_t loc = (u + s) % 12;
      window.push_back({u, loc, t});
      if (static_cast<int>(window.size()) > 6) window.erase(window.begin());
      data::Sample sample;
      sample.user = u;
      sample.recent = window;
      t += 3 * data::kSecondsPerHour;
      sample.target = {u, (u + s + 1) % 12, t};
      stream.push_back(sample);
    }
  }
  return stream;
}

bool AllFinite(const std::vector<float>& scores) {
  for (float s : scores) {
    if (!std::isfinite(s)) return false;
  }
  return true;
}

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

ShardedServiceConfig SmallShardedConfig(int num_shards) {
  ShardedServiceConfig config;
  config.num_shards = num_shards;
  config.service.workers = 2;
  config.service.max_batch = 4;
  config.store.num_shards = 2;
  // A tiny hot cap per group so the cold tier is genuinely exercised.
  config.store.max_resident_users = 4;
  config.compact.slab_bytes = 16 * 1024;
  return config;
}

uint64_t TotalAccounted(const ShardedService& service) {
  uint64_t total = 0;
  for (const auto& group : service.Stats()) {
    total += group.service.accounted();
  }
  return total;
}

// ---- two-tier SessionStore + CompactStore, below the service layer -------

std::vector<float> RandomCanonicalPattern(common::Rng& rng, size_t dim) {
  std::vector<float> p(dim);
  for (float& x : p) x = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
  common::QfloatCanonicalize(&p);
  return p;
}

/// A random pattern in its stored form.
common::QfloatBlock RandomQ8Pattern(common::Rng& rng, size_t dim) {
  const std::vector<float> p = RandomCanonicalPattern(rng, dim);
  common::QfloatBlock block;
  common::QfloatEncode(p.data(), p.size(), &block);
  return block;
}

TEST(TwoTierStoreTest, EvictionAndRehydrationAreBitInvisible) {
  core::LightMob model(SmallConfig());
  const int kUsers = 12;
  const size_t hidden = 8;

  CompactStore cold;
  serve::SessionStoreConfig tiered_config;
  tiered_config.num_shards = 2;
  tiered_config.max_resident_users = 3;  // far fewer than kUsers
  tiered_config.cold_tier = &cold;
  serve::SessionStore tiered(tiered_config);

  serve::SessionStoreConfig dense_config;
  dense_config.num_shards = 2;  // no cap
  serve::SessionStore dense(dense_config);

  common::Rng rng(3);
  int64_t t = 1333238400;
  for (int round = 0; round < 10; ++round) {
    for (int64_t user = 0; user < kUsers; ++user) {
      const std::vector<float> pattern = RandomCanonicalPattern(rng, hidden);
      const int64_t loc = (user + round) % 12;
      tiered.Observe(user, pattern, loc, t);
      dense.Observe(user, pattern, loc, t);
      t += 600;
    }
  }

  // The cap forced dehydration churn; nobody was forgotten.
  EXPECT_GT(tiered.DehydrationCount(), 0u);
  EXPECT_GT(cold.GetStats().users, 0u);
  EXPECT_LE(tiered.ResidentUsers().size(), 4u);

  // Every user predicts bit-identically to the uncapped store, whether the
  // answer came from hot state or a rehydrated cold blob.
  for (int64_t user = 0; user < kUsers; ++user) {
    const std::vector<float> query = RandomCanonicalPattern(rng, hidden);
    const std::vector<float> a =
        serve::PredictOnly(tiered, model, user, query, t);
    const std::vector<float> b =
        serve::PredictOnly(dense, model, user, query, t);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << "user " << user << " score " << i;
    }
  }
  EXPECT_GT(tiered.HydrationCount(), 0u);

  // The compact tier's payload is bounded per pattern and stays smaller
  // than the dense representation of the same cold users (measured at unit
  // scale: extract every cold user into an uncapped probe store and compare
  // its dense accounting against the blob bytes they occupied).
  const uint64_t cold_blob_bytes = cold.GetStats().blob_bytes;
  const std::vector<int64_t> hot_users = tiered.ResidentUsers();
  serve::SessionStore probe(serve::SessionStoreConfig{});
  for (int64_t user = 0; user < kUsers; ++user) {
    if (std::binary_search(hot_users.begin(), hot_users.end(), user)) {
      continue;  // hot — not in the compact tier
    }
    core::OnlineAdapter::UserSnapshot snap;
    ASSERT_TRUE(tiered.ExtractUser(user, &snap));
    probe.InjectUser(std::move(snap));
  }
  const uint64_t cold_dense_bytes = probe.ResidentBytes();
  size_t cold_patterns = 0;
  for (int64_t user = 0; user < kUsers; ++user) {
    cold_patterns += probe.PatternCount(user);
  }
  EXPECT_GT(cold_blob_bytes, 0u);
  // At most 32 B per dim-8 pattern, framing included (17.3 measured; the
  // 4x dense/compact ratio this bound replaced allowed 32.2 at this shape).
  // Both tiers hold the same int8 payload, and the dense side pays a 24-byte
  // slab record per pattern, so it stays larger (~3.0x).
  EXPECT_LE(cold_blob_bytes, 32u * cold_patterns);
  EXPECT_GT(cold_dense_bytes, cold_blob_bytes)
      << "dense " << cold_dense_bytes << " vs compact " << cold_blob_bytes;
}

TEST(TwoTierStoreTest, ExtractAndInjectMoveStateBetweenStores) {
  CompactStore cold_a;
  serve::SessionStoreConfig config_a;
  config_a.max_resident_users = 2;
  config_a.cold_tier = &cold_a;
  serve::SessionStore store_a(config_a);

  serve::SessionStore store_b(serve::SessionStoreConfig{});

  common::Rng rng(5);
  int64_t t = 1333238400;
  for (int64_t user = 0; user < 6; ++user) {
    for (int i = 0; i < 8; ++i) {
      store_a.Observe(user, RandomCanonicalPattern(rng, 8), (user + i) % 12,
                      t);
      t += 600;
    }
  }
  const size_t patterns_before = [&] {
    size_t total = 0;
    for (int64_t user = 0; user < 6; ++user) {
      // PatternCount only sees the hot tier; pull everyone hot first.
      core::OnlineAdapter::UserSnapshot snap;
      EXPECT_TRUE(store_a.ExtractUser(user, &snap));
      size_t n = 0;
      for (const auto& [loc, entries] : snap.locations) n += entries.size();
      total += n;
      store_b.InjectUser(std::move(snap));
    }
    return total;
  }();

  // Everything moved: source empty (both tiers), destination serves it all.
  EXPECT_EQ(store_a.UserCount(), 0u);
  EXPECT_EQ(cold_a.GetStats().users, 0u);
  size_t patterns_after = 0;
  for (int64_t user = 0; user < 6; ++user) {
    patterns_after += store_b.PatternCount(user);
  }
  EXPECT_EQ(patterns_after, patterns_before);
  EXPECT_EQ(patterns_before, 6u * 8u);

  core::OnlineAdapter::UserSnapshot missing;
  EXPECT_FALSE(store_a.ExtractUser(99, &missing));
}

TEST(TwoTierStoreTest, HeterogeneousPatternDimsSurviveDehydration) {
  // Regression: a user whose entries mix pattern sizes used to encode to a
  // blob that could not decode — aborting the process at the next
  // hydration (Take CHECKs decodability) instead of round-tripping.
  CompactStore cold;
  common::Rng rng(9);
  core::OnlineAdapter::UserSnapshot snap;
  snap.user = 3;
  int64_t loc = 1;
  for (size_t dim : {8u, 3u, 16u}) {
    std::vector<core::OnlineAdapter::Entry> entries;
    core::OnlineAdapter::Entry entry;
    entry.pattern = RandomQ8Pattern(rng, dim);
    entry.timestamp = 1000 * loc;
    entries.push_back(std::move(entry));
    snap.locations.emplace_back(loc, std::move(entries));
    loc += 2;
  }
  const core::OnlineAdapter::UserSnapshot original = snap;

  cold.Accept(std::move(snap));
  core::OnlineAdapter::UserSnapshot back;
  ASSERT_TRUE(cold.Take(3, &back));
  ASSERT_EQ(back.locations.size(), original.locations.size());
  for (size_t l = 0; l < back.locations.size(); ++l) {
    EXPECT_EQ(back.locations[l].first, original.locations[l].first);
    const auto& got = back.locations[l].second;
    const auto& want = original.locations[l].second;
    ASSERT_EQ(got.size(), want.size());
    for (size_t e = 0; e < got.size(); ++e) {
      EXPECT_EQ(got[e].timestamp, want[e].timestamp);
      EXPECT_EQ(got[e].pattern, want[e].pattern);  // exact block ==
    }
  }
}

// ---- the sharded service ---------------------------------------------------

TEST(ShardedServiceTest, ServesAcrossGroupsAndBalancesTheLedger) {
  core::LightMob model(SmallConfig());
  ShardedService service(model, SmallShardedConfig(3));
  ASSERT_EQ(service.Shards(), (std::vector<int>{0, 1, 2}));

  const std::vector<data::Sample> stream = MakeStream(8, 10);
  std::vector<std::future<serve::Prediction>> futures;
  futures.reserve(stream.size());
  for (const data::Sample& sample : stream) {
    futures.push_back(service.Submit(sample));
  }
  size_t delivered = 0;
  for (auto& f : futures) {
    const serve::Prediction p = f.get();
    ASSERT_NE(p.outcome, serve::RequestOutcome::kShed);
    ASSERT_EQ(p.scores.size(), 12u);
    EXPECT_TRUE(AllFinite(p.scores));
    ++delivered;
  }
  EXPECT_EQ(delivered, stream.size());
  EXPECT_EQ(TotalAccounted(service), stream.size());
  EXPECT_EQ(service.InTransitCount(), 0u);
  EXPECT_EQ(service.RouterFallbacks(), 0u);

  // Users actually spread over the groups (placement follows the router).
  size_t groups_with_users = 0;
  size_t total_users = 0;
  for (const auto& group : service.Stats()) {
    const size_t users = group.hot_users + group.cold_users;
    if (users > 0) ++groups_with_users;
    total_users += users;
  }
  EXPECT_GE(groups_with_users, 2u);
  EXPECT_EQ(total_users, 8u);

  const core::AdapterStats capacity = service.CapacityStats();
  EXPECT_GT(capacity.resident_bytes, 0);
  service.Shutdown();
}

TEST(ShardedServiceTest, AddShardMigratesExactlyTheReassignedUsers) {
  core::LightMob model(SmallConfig());
  ShardedService service(model, SmallShardedConfig(2));
  const int kUsers = 16;
  const std::vector<data::Sample> stream = MakeStream(kUsers, 6);
  std::vector<std::future<serve::Prediction>> futures;
  for (const data::Sample& sample : stream) {
    futures.push_back(service.Submit(sample));
  }
  for (auto& f : futures) f.get();

  std::vector<int> before(kUsers);
  for (int u = 0; u < kUsers; ++u) before[u] = service.ShardFor(u);

  const int added = service.AddShard();
  EXPECT_EQ(added, 2);
  EXPECT_EQ(service.Shards(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(service.InTransitCount(), 0u);

  uint64_t expected_moves = 0;
  for (int u = 0; u < kUsers; ++u) {
    const int now = service.ShardFor(u);
    if (now != before[u]) {
      EXPECT_EQ(now, added) << "user " << u;
      ++expected_moves;
    }
  }
  EXPECT_EQ(service.MigratedUsers(), expected_moves);
  // No user lost or duplicated by the migration.
  size_t total_users = 0;
  for (const auto& group : service.Stats()) {
    total_users += group.hot_users + group.cold_users;
  }
  EXPECT_EQ(total_users, static_cast<size_t>(kUsers));

  // The service still serves everyone after the rebalance.
  std::vector<std::future<serve::Prediction>> after;
  for (const data::Sample& sample : MakeStream(kUsers, 2)) {
    after.push_back(service.Submit(sample));
  }
  for (auto& f : after) {
    const serve::Prediction p = f.get();
    ASSERT_NE(p.outcome, serve::RequestOutcome::kShed);
    EXPECT_TRUE(AllFinite(p.scores));
  }
  service.Shutdown();
}

TEST(ShardedServiceTest, RemoveShardDrainsAndRehomesItsUsers) {
  core::LightMob model(SmallConfig());
  ShardedService service(model, SmallShardedConfig(3));
  const int kUsers = 16;
  std::vector<std::future<serve::Prediction>> futures;
  for (const data::Sample& sample : MakeStream(kUsers, 6)) {
    futures.push_back(service.Submit(sample));
  }
  for (auto& f : futures) f.get();

  ASSERT_TRUE(service.RemoveShard(1));
  EXPECT_EQ(service.Shards(), (std::vector<int>{0, 2}));
  EXPECT_EQ(service.InTransitCount(), 0u);
  for (int u = 0; u < kUsers; ++u) EXPECT_NE(service.ShardFor(u), 1);

  // The drained group is empty; everyone lives on the survivors.
  size_t total_users = 0;
  for (const auto& group : service.Stats()) {
    if (group.shard_id == 1) {
      EXPECT_TRUE(group.draining);
      EXPECT_EQ(group.hot_users + group.cold_users, 0u);
    } else {
      total_users += group.hot_users + group.cold_users;
    }
  }
  EXPECT_EQ(total_users, static_cast<size_t>(kUsers));

  // Invalid removals change nothing.
  EXPECT_FALSE(service.RemoveShard(1));   // already draining
  EXPECT_FALSE(service.RemoveShard(99));  // unknown
  ASSERT_TRUE(service.RemoveShard(0));
  EXPECT_FALSE(service.RemoveShard(2));  // last live shard stays
  EXPECT_EQ(service.Shards(), std::vector<int>{2});

  std::vector<std::future<serve::Prediction>> after;
  for (const data::Sample& sample : MakeStream(kUsers, 1)) {
    after.push_back(service.Submit(sample));
  }
  for (auto& f : after) {
    EXPECT_TRUE(AllFinite(f.get().scores));
  }
  service.Shutdown();
}

/// The TSan headline: topology churn while three threads pour traffic in.
/// Every future resolves with finite scores, the global ledger balances,
/// and no user is left in transit once the dust settles.
TEST(ShardedServiceTest, RebalanceWhileServingIsRaceFreeAndAccounted) {
  core::LightMob model(SmallConfig());
  ShardedService service(model, SmallShardedConfig(2));

  constexpr int kThreads = 3;
  constexpr int kUsers = 12;
  constexpr int kStepsPerThread = 8;
  std::atomic<uint64_t> submitted{0};
  // Every user owns state before the churn starts: its first two windows,
  // served one at a time on a stable topology, store one transition. A
  // request that lands inside a rebalance window is served frozen-only and
  // stores nothing, so without this a user could end the run stateless.
  for (const data::Sample& sample : MakeStream(kUsers, 2)) {
    const serve::Prediction p = service.Submit(sample).get();
    submitted.fetch_add(1, std::memory_order_relaxed);
    ASSERT_EQ(p.outcome, serve::RequestOutcome::kOk);
  }
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int th = 0; th < kThreads; ++th) {
    producers.emplace_back([&, th] {
      const std::vector<data::Sample> stream =
          MakeStream(kUsers, kStepsPerThread);
      for (size_t i = th; i < stream.size(); i += kThreads) {
        std::future<serve::Prediction> f = service.Submit(stream[i]);
        submitted.fetch_add(1, std::memory_order_relaxed);
        const serve::Prediction p = f.get();
        ASSERT_EQ(p.scores.size(), 12u);
        ASSERT_TRUE(AllFinite(p.scores));
      }
    });
  }

  // Concurrent topology churn: grow to 4 groups, shrink back to 2.
  const int s2 = service.AddShard();
  const int s3 = service.AddShard();
  ASSERT_TRUE(service.RemoveShard(s2));
  ASSERT_TRUE(service.RemoveShard(s3));

  for (std::thread& t : producers) t.join();

  EXPECT_EQ(service.InTransitCount(), 0u);
  EXPECT_EQ(TotalAccounted(service), submitted.load());
  EXPECT_EQ(service.Shards(), (std::vector<int>{0, 1}));

  // State survived the churn: every user still owned exactly once.
  size_t total_users = 0;
  for (const auto& group : service.Stats()) {
    if (!group.draining) total_users += group.hot_users + group.cold_users;
  }
  EXPECT_EQ(total_users, static_cast<size_t>(kUsers));
  service.Shutdown();
}

TEST(ShardedServiceTest, SnapshotRestoreRoundTripsAcrossProcessBoundary) {
  const std::string prefix = TempPath("adamove_sharded_snap");
  core::LightMob model(SmallConfig());
  const int kUsers = 10;

  std::vector<size_t> users_per_group;
  {
    ShardedService service(model, SmallShardedConfig(2));
    std::vector<std::future<serve::Prediction>> futures;
    for (const data::Sample& sample : MakeStream(kUsers, 6)) {
      futures.push_back(service.Submit(sample));
    }
    for (auto& f : futures) f.get();
    for (const auto& group : service.Stats()) {
      users_per_group.push_back(group.hot_users + group.cold_users);
    }
    ASSERT_TRUE(service.Snapshot(prefix));
    service.Shutdown();
  }

  // A fresh "process": same topology, state only from the files.
  ShardedService restored(model, SmallShardedConfig(2));
  ASSERT_TRUE(restored.Restore(prefix));
  std::vector<size_t> restored_per_group;
  size_t total = 0;
  for (const auto& group : restored.Stats()) {
    restored_per_group.push_back(group.hot_users + group.cold_users);
    total += group.hot_users + group.cold_users;
  }
  EXPECT_EQ(restored_per_group, users_per_group);
  EXPECT_EQ(total, static_cast<size_t>(kUsers));

  // Missing files are an error, not silent emptiness.
  ShardedService empty(model, SmallShardedConfig(2));
  EXPECT_FALSE(empty.Restore(TempPath("adamove_sharded_snap_nonexistent")));

  // One file per group, covering both of its tiers.
  for (int s = 0; s < 2; ++s) {
    const std::string path = prefix + ".shard" + std::to_string(s);
    EXPECT_TRUE(std::filesystem::exists(path)) << path;
    std::remove(path.c_str());
  }
  restored.Shutdown();
  empty.Shutdown();
}

}  // namespace
}  // namespace adamove::shard
