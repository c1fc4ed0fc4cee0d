#include "serve/session_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "core/lightmob.h"
#include "shard/compact_store.h"
#include "tests/serve/predict_only.h"

namespace adamove::serve {
namespace {

core::ModelConfig SmallConfig() {
  core::ModelConfig c;
  c.num_locations = 10;
  c.num_users = 16;
  c.hidden_size = 8;
  c.location_emb_dim = 4;
  c.time_emb_dim = 4;
  c.user_emb_dim = 2;
  c.lambda = 0.0;
  return c;
}

std::vector<float> Pattern(float seed) {
  return {seed, 1, 0, 0, 0, 0, 0, 0};
}

/// Users that collide onto / avoid a shard, found via the store's own hash.
std::vector<int64_t> UsersOnShard(const SessionStore& store, int shard,
                                  int count) {
  std::vector<int64_t> users;
  for (int64_t u = 0; static_cast<int>(users.size()) < count; ++u) {
    if (store.ShardOf(u) == shard) users.push_back(u);
  }
  return users;
}

TEST(SessionStoreTest, LruEvictsLeastRecentlyTouchedUser) {
  SessionStoreConfig config;
  config.num_shards = 1;  // single stripe => global LRU order
  config.max_resident_users = 2;
  SessionStore store(config);

  store.Observe(1, Pattern(1), 3, 1000);
  store.Observe(2, Pattern(2), 3, 1001);
  store.Observe(1, Pattern(1), 4, 1002);  // touch 1 => 2 is now the victim
  store.Observe(3, Pattern(3), 3, 1003);  // over cap => evict 2

  EXPECT_EQ(store.EvictionCount(), 1u);
  EXPECT_EQ(store.UserCount(), 2u);
  EXPECT_EQ(store.PatternCount(2), 0u);  // evicted via OnlineAdapter::Forget
  EXPECT_EQ(store.PatternCount(1), 2u);
  EXPECT_EQ(store.PatternCount(3), 1u);

  store.Observe(4, Pattern(4), 3, 1004);  // evicts 1 (3 is fresher)
  EXPECT_EQ(store.EvictionCount(), 2u);
  EXPECT_EQ(store.PatternCount(1), 0u);
  EXPECT_EQ(store.PatternCount(3), 1u);
}

TEST(SessionStoreTest, ForgetDropsOnlyThatUser) {
  SessionStoreConfig config;
  SessionStore store(config);
  store.Observe(7, Pattern(1), 2, 10);
  store.Observe(8, Pattern(1), 2, 10);
  store.Forget(7);
  EXPECT_EQ(store.PatternCount(7), 0u);
  EXPECT_EQ(store.PatternCount(8), 1u);
  EXPECT_EQ(store.UserCount(), 1u);
  store.Forget(7);  // idempotent on absent users
  EXPECT_EQ(store.UserCount(), 1u);
}

TEST(SessionStoreTest, ShardsAreIsolated) {
  SessionStoreConfig config;
  config.num_shards = 4;
  config.max_resident_users = 4;  // cap of 1 per shard
  SessionStore store(config);
  // One user per distinct shard: per-shard caps never interact.
  std::vector<int64_t> users;
  for (int shard = 0; shard < 4; ++shard) {
    users.push_back(UsersOnShard(store, shard, 1)[0]);
  }
  for (int64_t u : users) store.Observe(u, Pattern(1), 2, 100);
  EXPECT_EQ(store.UserCount(), 4u);
  EXPECT_EQ(store.EvictionCount(), 0u);
  // A second user on shard 0 evicts only shard 0's resident.
  const int64_t second = UsersOnShard(store, 0, 2)[1];
  store.Observe(second, Pattern(2), 2, 101);
  EXPECT_EQ(store.EvictionCount(), 1u);
  EXPECT_EQ(store.PatternCount(users[0]), 0u);
  for (size_t i = 1; i < users.size(); ++i) {
    EXPECT_EQ(store.PatternCount(users[i]), 1u) << "shard " << i;
  }
}

TEST(SessionStoreTest, SingleRequestBatchMatchesOnlineAdapter) {
  core::LightMob model(SmallConfig());
  data::Sample sample;
  sample.user = 3;
  int64_t t = 1333238400;
  for (int64_t l : {1, 2, 7, 2, 7}) {
    sample.recent.push_back({3, l, t});
    t += 3 * data::kSecondsPerHour;
  }
  sample.target = {3, 7, t};

  core::OnlineAdapter reference{core::PttaConfig{}};
  std::vector<float> expected = reference.ObserveAndPredict(model, sample);

  SessionStore store{SessionStoreConfig{}};
  nn::Tensor reps = model.PrefixRepresentations(sample);
  std::vector<AdaptStatus> statuses;
  const std::vector<float> got = store.BatchObserveAndPredictEncoded(
      model, {{&sample, SessionStore::RepsView(reps)}}, &statuses)[0];
  EXPECT_EQ(statuses[0], AdaptStatus::kAdapted);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "score " << i;  // bit-identical
  }
  EXPECT_EQ(store.PatternCount(3), reference.PatternCount(3));
}

TEST(SessionStoreTest, ConcurrentObservePredictSmoke) {
  core::LightMob model(SmallConfig());
  SessionStoreConfig config;
  config.num_shards = 8;
  config.max_resident_users = 64;
  SessionStore store(config);

  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      const std::vector<float> query = Pattern(static_cast<float>(tid));
      for (int i = 0; i < kIters; ++i) {
        // Writers and readers hit interleaved users across all shards:
        // Predict on one user runs concurrently with Observe on others.
        const int64_t user = (tid * kIters + i) % 32;
        store.Observe(user, Pattern(static_cast<float>(i)), i % 10,
                      1000 + i);
        const std::vector<float> scores =
            PredictOnly(store, model, user, query, 2000 + i);
        if (scores.size() != 10u) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(store.UserCount(), 32u);
  size_t patterns = 0;
  for (int64_t u = 0; u < 32; ++u) patterns += store.PatternCount(u);
  EXPECT_GT(patterns, 0u);
}

/// Regression: Forget racing LRU eviction under a resident-user cap. Both
/// paths mutate the same shard's lru/lru_pos/adapter triple; a historical
/// failure mode is Forget erasing a user whose LRU iterator an in-flight
/// eviction still holds (iterator invalidation => UB only TSan/ASan see).
/// The test drives both paths hard on one shard, then asserts the store is
/// still internally consistent and drainable to empty.
TEST(SessionStoreTest, ConcurrentForgetRacesEvictionUnderCap) {
  SessionStoreConfig config;
  config.num_shards = 2;
  config.max_resident_users = 8;  // cap of 4 per shard => constant eviction
  SessionStore store(config);
  const std::vector<int64_t> users = UsersOnShard(store, 0, 16);

  constexpr int kObservers = 4;
  constexpr int kForgetters = 4;
  constexpr int kIters = 300;
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kObservers; ++tid) {
    threads.emplace_back([&, tid] {
      for (int i = 0; i < kIters; ++i) {
        // Rotating user order per thread: every user is repeatedly inserted,
        // touched to the LRU front, and pushed out by later arrivals.
        const int64_t user = users[static_cast<size_t>((tid + i) % 16)];
        store.Observe(user, Pattern(static_cast<float>(i)), i % 10, 1000 + i);
      }
    });
  }
  for (int tid = 0; tid < kForgetters; ++tid) {
    threads.emplace_back([&, tid] {
      for (int i = 0; i < kIters; ++i) {
        // Forget the very users the observers are cycling, including ones
        // currently being evicted or not resident at all.
        store.Forget(users[static_cast<size_t>((tid * 3 + i) % 16)]);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Consistency after the storm: residency respects the cap, and every
  // resident user still has coherent state (PatternCount answers).
  EXPECT_LE(store.UserCount(), 8u);
  size_t resident = 0;
  for (int64_t u : users) {
    if (store.PatternCount(u) > 0) ++resident;
  }
  EXPECT_LE(resident, store.UserCount());

  // Drain: forgetting everyone leaves a genuinely empty store — no orphaned
  // LRU entries keep phantom users alive.
  for (int64_t u : users) store.Forget(u);
  EXPECT_EQ(store.UserCount(), 0u);
  for (int64_t u : users) EXPECT_EQ(store.PatternCount(u), 0u);
}

/// Regression: Forget racing an in-flight Restore while the LRU cap evicts.
/// Restore installs users frame by frame under the shard mutex and touches
/// the LRU, so three writers now contend for the same shard state: the
/// restorer (TouchLocked + Adopt), observers (TouchLocked + Observe +
/// eviction), and forgetters. The hazards are the same iterator-invalidation
/// family as the Forget/eviction race, plus Adopt resurrecting a user a
/// concurrent Forget just dropped — afterwards the store must still be
/// internally consistent and drainable.
TEST(SessionStoreTest, ConcurrentForgetRacesRestoreUnderCap) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "adamove_store_restore_race.bin")
          .string();
  // Snapshot 16 users' state from an unbounded donor store.
  SessionStoreConfig donor_config;
  donor_config.num_shards = 2;
  SessionStore donor(donor_config);
  std::vector<int64_t> users = UsersOnShard(donor, 0, 16);
  for (int64_t u : users) {
    for (int s = 0; s < 4; ++s) {
      donor.Observe(u, Pattern(static_cast<float>(s)), s % 10, 1000 + s);
    }
  }
  ASSERT_TRUE(donor.Snapshot(path));

  SessionStoreConfig config;
  config.num_shards = 2;
  config.max_resident_users = 8;  // cap of 4 per shard => constant eviction
  SessionStore store(config);
  // Same hash => same shard layout: every snapshot user lands on shard 0 of
  // `store` too, maximising contention with the observers/forgetters.
  constexpr int kObservers = 3;
  constexpr int kForgetters = 3;
  constexpr int kIters = 300;
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    // The restorer: repeatedly re-imports the snapshot while the other
    // threads churn — each pass installs users the forgetters are dropping.
    for (int pass = 0; pass < 6; ++pass) {
      SnapshotStats stats;
      ASSERT_TRUE(store.Restore(path, &stats));
      ASSERT_EQ(stats.users, 16u);
    }
  });
  for (int tid = 0; tid < kObservers; ++tid) {
    threads.emplace_back([&, tid] {
      for (int i = 0; i < kIters; ++i) {
        const int64_t user = users[static_cast<size_t>((tid + i) % 16)];
        store.Observe(user, Pattern(static_cast<float>(i)), i % 10, 2000 + i);
      }
    });
  }
  for (int tid = 0; tid < kForgetters; ++tid) {
    threads.emplace_back([&, tid] {
      for (int i = 0; i < kIters; ++i) {
        store.Forget(users[static_cast<size_t>((tid * 5 + i) % 16)]);
      }
    });
  }
  for (auto& t : threads) t.join();

  // Consistency after the storm: the cap held throughout, every resident
  // user answers PatternCount, and the store drains to genuinely empty.
  EXPECT_LE(store.UserCount(), 8u);
  for (int64_t u : users) store.Forget(u);
  EXPECT_EQ(store.UserCount(), 0u);
  for (int64_t u : users) EXPECT_EQ(store.PatternCount(u), 0u);
  std::remove(path.c_str());
}

// ---- ingest once (DESIGN.md §4.3) ---------------------------------------

/// `count` requests of one key whose `width`-point windows slide over one
/// check-in stream by one point each: consecutive windows share all but
/// one transition, as the serving stream's do. Point i is at location
/// i % 10, 3 h after point i-1; each window's target is the next point.
std::vector<data::Sample> SlidingWindows(int64_t user, size_t count,
                                         size_t width, int64_t t0) {
  std::vector<data::Point> stream;
  for (size_t i = 0; i < count + width; ++i) {
    stream.push_back({user, static_cast<int64_t>(i % 10),
                      t0 + static_cast<int64_t>(i) * 3 *
                               data::kSecondsPerHour});
  }
  std::vector<data::Sample> samples(count);
  for (size_t j = 0; j < count; ++j) {
    samples[j].user = user;
    samples[j].recent.assign(stream.begin() + static_cast<ptrdiff_t>(j),
                             stream.begin() + static_cast<ptrdiff_t>(j + width));
    samples[j].target = stream[j + width];
  }
  return samples;
}

std::vector<float> ServeOne(SessionStore& store, core::LightMob& model,
                            const data::Sample& sample,
                            const BatchAdaptOptions& options,
                            AdaptStatus* status) {
  const nn::Tensor reps = model.PrefixRepresentations(sample);
  std::vector<AdaptStatus> statuses;
  std::vector<std::vector<float>> scores = store.BatchObserveAndPredictEncoded(
      model, {{&sample, SessionStore::RepsView(reps)}}, options, &statuses,
      nullptr);
  *status = statuses[0];
  return std::move(scores[0]);
}

/// N overlapping windows of one key store each distinct transition once:
/// every stream point but the first labels exactly one entry.
TEST(SessionStoreTest, OverlappingWindowsStoreEachTransitionOnce) {
  core::LightMob model(SmallConfig());
  SessionStore store{SessionStoreConfig{}};
  const std::vector<data::Sample> windows =
      SlidingWindows(5, 24, 8, 1333238400);
  AdaptStatus status;
  for (const data::Sample& sample : windows) {
    (void)ServeOne(store, model, sample, BatchAdaptOptions{}, &status);
    ASSERT_EQ(status, AdaptStatus::kAdapted);
  }
  // 31 stream points in the windows over 10 locations: no FIFO is full.
  EXPECT_EQ(store.PatternCount(5), windows.size() + 8 - 2);
}

/// The (location, label timestamp) of every entry a key holds, in wire
/// order (ExtractUser removes the key).
std::vector<std::pair<int64_t, int64_t>> ExtractedLabels(SessionStore& store,
                                                         int64_t user) {
  core::OnlineAdapter::UserSnapshot snap;
  EXPECT_TRUE(store.ExtractUser(user, &snap));
  std::vector<std::pair<int64_t, int64_t>> labels;
  for (const auto& [location, entries] : snap.locations) {
    for (const auto& entry : entries) {
      labels.emplace_back(location, entry.timestamp);
    }
  }
  return labels;
}

/// A request hit by the serve.ptta_generate fault ingests nothing; the
/// key's next request carries those transitions again and ingests them, so
/// the key ends up holding the same labelled transitions as one that never
/// faulted (each pattern is the one its first ingesting request encoded).
/// A key forgotten by LRU eviction without a cold tier has no watermark
/// left: its next window is ingested whole.
TEST(SessionStoreTest, FaultedOrForgottenKeysIngestTheirNextWindow) {
  core::LightMob model(SmallConfig());
  const std::vector<data::Sample> windows =
      SlidingWindows(2, 6, 8, 1333238400);
  common::FaultRegistry& faults = common::FaultRegistry::Instance();
  faults.DisarmAll();
  SessionStore reference{SessionStoreConfig{}};
  SessionStore faulted{SessionStoreConfig{}};
  AdaptStatus status;
  for (size_t j = 0; j < windows.size(); ++j) {
    (void)ServeOne(reference, model, windows[j], BatchAdaptOptions{}, &status);
    if (j == 3) {
      faults.Arm("serve.ptta_generate", common::FaultSpec{1.0, 0, true});
    }
    (void)ServeOne(faulted, model, windows[j], BatchAdaptOptions{}, &status);
    faults.DisarmAll();
    EXPECT_EQ(status,
              j == 3 ? AdaptStatus::kStaleState : AdaptStatus::kAdapted);
    EXPECT_EQ(faulted.PatternCount(2) + (j == 3 ? 1 : 0),
              reference.PatternCount(2))
        << "request " << j;
  }
  EXPECT_EQ(ExtractedLabels(faulted, 2), ExtractedLabels(reference, 2));

  SessionStoreConfig capped_config;
  capped_config.num_shards = 1;
  capped_config.max_resident_users = 1;
  SessionStore capped(capped_config);
  (void)ServeOne(capped, model, windows[0], BatchAdaptOptions{}, &status);
  capped.Observe(9, Pattern(1), 3, 1000);  // evicts key 2: forgotten
  ASSERT_EQ(capped.PatternCount(2), 0u);
  (void)ServeOne(capped, model, windows[1], BatchAdaptOptions{}, &status);
  EXPECT_EQ(capped.PatternCount(2), windows[1].recent.size() - 1);
}

/// A capped store with a compact cold tier answers overlapping windows
/// bit-identically to a flat store: two keys alternate on one single-user
/// shard, so every request hydrates its key from the compact tier, and the
/// watermark Adopt derives from the hydrated state skips exactly what the
/// flat store's live watermark skips.
TEST(SessionStoreTest, CompactColdTierMatchesFlatStoreOnOverlappingWindows) {
  core::LightMob model(SmallConfig());
  shard::CompactStore cold;
  SessionStoreConfig capped_config;
  capped_config.num_shards = 1;
  capped_config.max_resident_users = 1;
  capped_config.cold_tier = &cold;
  SessionStore capped(capped_config);
  SessionStore flat(SessionStoreConfig{});

  const std::vector<data::Sample> a = SlidingWindows(3, 30, 8, 1333238400);
  const std::vector<data::Sample> b = SlidingWindows(4, 30, 6, 1333240000);
  AdaptStatus s1;
  AdaptStatus s2;
  for (size_t j = 0; j < a.size(); ++j) {
    for (const data::Sample* sample : {&a[j], &b[j]}) {
      const std::vector<float> got =
          ServeOne(capped, model, *sample, BatchAdaptOptions{}, &s1);
      const std::vector<float> want =
          ServeOne(flat, model, *sample, BatchAdaptOptions{}, &s2);
      ASSERT_EQ(s1, AdaptStatus::kAdapted);
      ASSERT_EQ(s2, AdaptStatus::kAdapted);
      ASSERT_EQ(got, want) << "user " << sample->user << " request " << j;
    }
  }
  EXPECT_GE(capped.HydrationCount(), 2 * a.size() - 2);
  EXPECT_EQ(capped.PatternCount(4), flat.PatternCount(4));
  EXPECT_EQ(flat.PatternCount(3), a.size() + 8 - 2);
}

}  // namespace
}  // namespace adamove::serve
