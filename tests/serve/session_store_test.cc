#include "serve/session_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "core/lightmob.h"
#include "serve/adapt_scheduler.h"
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

/// Minimal in-memory cold tier: stores whatever snapshot it is handed.
/// (serve/ cannot depend on shard/'s CompactStore, and the property under
/// test is what the *store* hands the tier, not how the tier packs it.)
class MapColdTier : public ColdTier {
 public:
  bool Take(int64_t user, core::OnlineAdapter::UserSnapshot* out) override {
    auto it = frames_.find(user);
    if (it == frames_.end()) return false;
    *out = std::move(it->second);
    frames_.erase(it);
    return true;
  }
  void Accept(core::OnlineAdapter::UserSnapshot&& snap) override {
    frames_[snap.user] = std::move(snap);
  }
  const core::OnlineAdapter::UserSnapshot* Peek(int64_t user) const {
    auto it = frames_.find(user);
    return it == frames_.end() ? nullptr : &it->second;
  }

 private:
  std::unordered_map<int64_t, core::OnlineAdapter::UserSnapshot> frames_;
};

data::Sample WalkSample(int64_t user, std::initializer_list<int64_t> recent,
                        int64_t target, int64_t t0) {
  data::Sample s;
  s.user = user;
  int64_t t = t0;
  for (int64_t l : recent) {
    s.recent.push_back({user, l, t});
    t += 3 * data::kSecondsPerHour;
  }
  s.target = {user, target, t};
  return s;
}

/// Regression for the elastic scheduler (DESIGN.md §16): LRU-evicting a
/// *dirty* user must dehydrate the pending deltas into the cold tier with
/// the rest of the state — rehydrating and draining then yields exactly the
/// state an inline run of the same observations produces. A cold tier that
/// dropped the buffer would silently lose observations under overload.
TEST(SessionStoreTest, DirtyUserEvictionDehydratesPendingDeltas) {
  core::LightMob model(SmallConfig());
  const data::Sample sample = WalkSample(1, {1, 2, 7, 2, 7}, 7, 1333238400);
  const nn::Tensor reps = model.PrefixRepresentations(sample);

  // Reference: the identical request served inline on a plain store.
  SessionStoreConfig ref_config;
  ref_config.num_shards = 1;
  SessionStore reference(ref_config);
  std::vector<AdaptStatus> ref_statuses;
  const std::vector<std::vector<float>> ref_scores =
      reference.BatchObserveAndPredictEncoded(
          model, {{&sample, SessionStore::RepsView(reps)}}, &ref_statuses);
  ASSERT_EQ(ref_statuses[0], AdaptStatus::kAdapted);

  MapColdTier tier;
  SessionStoreConfig config;
  config.num_shards = 1;  // single stripe => user 2 evicts user 1
  config.max_resident_users = 1;
  config.cold_tier = &tier;
  SessionStore store(config);

  // Serve the same request deferred: observations land in the pending
  // buffer, the prediction is the (empty-cache => frozen) stale rung.
  BatchAdaptOptions options;
  options.mode = AdaptExecMode::kDeferred;
  std::vector<AdaptStatus> statuses;
  BatchAdaptStats adapt_stats;
  (void)store.BatchObserveAndPredictEncoded(
      model, {{&sample, SessionStore::RepsView(reps)}}, options, &statuses,
      &adapt_stats);
  ASSERT_EQ(statuses[0], AdaptStatus::kStaleAdapt);
  EXPECT_GT(adapt_stats.deferred_ingests, 0u);
  EXPECT_EQ(store.DirtyUserCount(), 1u);
  const size_t pending_before = store.PendingDeltaCount();
  ASSERT_GT(pending_before, 0u);
  EXPECT_EQ(store.PatternCount(1), 0u);  // nothing ingested yet

  // Evict the dirty user: the cold frame must carry the pending buffer.
  store.Observe(2, Pattern(9), 3, 2000000000);
  EXPECT_EQ(store.DirtyUserCount(), 0u);
  EXPECT_EQ(store.PendingDeltaCount(), 0u);
  const core::OnlineAdapter::UserSnapshot* frame = tier.Peek(1);
  ASSERT_NE(frame, nullptr);
  EXPECT_TRUE(frame->locations.empty());
  EXPECT_EQ(frame->pending.size(), pending_before);

  // Rehydrate (a deferred predict touches the user without draining) and
  // drain: bit-identical to the inline run — eviction lost nothing,
  // reordered nothing.
  std::vector<float> query(reps.data().end() - reps.cols(),
                           reps.data().end());
  (void)PredictOnly(store, model, 1, query, sample.target.timestamp, options);
  EXPECT_EQ(tier.Peek(1), nullptr);
  EXPECT_EQ(store.DirtyUserCount(), 1u);
  EXPECT_EQ(store.DrainDirtyUsers(0), 1u);
  EXPECT_EQ(store.DirtyUserCount(), 0u);

  core::OnlineAdapter::UserSnapshot drained;
  ASSERT_TRUE(store.ExtractUser(1, &drained));
  core::OnlineAdapter::UserSnapshot inline_state;
  ASSERT_TRUE(reference.ExtractUser(1, &inline_state));
  std::string drained_bytes;
  std::string inline_bytes;
  core::OnlineAdapter::EncodeUser(drained, &drained_bytes);
  core::OnlineAdapter::EncodeUser(inline_state, &inline_bytes);
  EXPECT_EQ(drained_bytes, inline_bytes);
}

/// The lazy-rebuild rung: an *inline* predict that finds pending deltas
/// drains them first, so a single request self-heals the backlog and is
/// served fresh — scores bit-identical to the never-deferred run.
TEST(SessionStoreTest, InlinePredictLazilyDrainsPendingBacklog) {
  core::LightMob model(SmallConfig());
  const data::Sample first = WalkSample(3, {1, 2, 7, 2}, 7, 1333238400);
  const data::Sample second =
      WalkSample(3, {2, 7, 2, 7}, 7, first.target.timestamp);
  const nn::Tensor first_reps = model.PrefixRepresentations(first);
  const nn::Tensor second_reps = model.PrefixRepresentations(second);

  // Reference: both requests inline.
  SessionStore reference{SessionStoreConfig{}};
  (void)reference.BatchObserveAndPredictEncoded(
      model, {{&first, SessionStore::RepsView(first_reps)}});
  const std::vector<std::vector<float>> want =
      reference.BatchObserveAndPredictEncoded(
          model, {{&second, SessionStore::RepsView(second_reps)}});

  // Deferred first request, inline second: the second must lazy-drain.
  SessionStore store{SessionStoreConfig{}};
  BatchAdaptOptions deferred;
  deferred.mode = AdaptExecMode::kDeferred;
  std::vector<AdaptStatus> statuses;
  (void)store.BatchObserveAndPredictEncoded(
      model, {{&first, SessionStore::RepsView(first_reps)}}, deferred,
      &statuses, nullptr);
  ASSERT_EQ(statuses[0], AdaptStatus::kStaleAdapt);

  BatchAdaptStats adapt_stats;
  const std::vector<std::vector<float>> got =
      store.BatchObserveAndPredictEncoded(
          model, {{&second, SessionStore::RepsView(second_reps)}},
          BatchAdaptOptions{}, &statuses, &adapt_stats);
  ASSERT_EQ(statuses[0], AdaptStatus::kAdapted);
  EXPECT_EQ(adapt_stats.lazy_rebuilds, 1u);
  EXPECT_EQ(store.PendingDeltaCount(), 0u);
  ASSERT_EQ(got[0].size(), want[0].size());
  for (size_t i = 0; i < got[0].size(); ++i) {
    ASSERT_EQ(got[0][i], want[0][i]) << "score " << i;
  }
}

/// Bounded staleness by construction: a deferred request that finds
/// kMaxStaleDepth pending deltas is forced inline (drain + fresh rebuild),
/// so no prediction is served deeper than kMaxStaleDepth - 1 buffered
/// deltas plus its own transitions.
TEST(SessionStoreTest, MaxStaleDepthForcesInlineRebuilds) {
  core::LightMob model(SmallConfig());
  SessionStore store{SessionStoreConfig{}};
  BatchAdaptOptions deferred;
  deferred.mode = AdaptExecMode::kDeferred;

  // One user whose every request brings 6 fresh points: each request
  // buffers 5 new transitions (an overlapping window would only repeat
  // transitions the key already holds, which the ingest rule skips), spread
  // over all 10 locations (so nothing coalesces before the bound), and ~52
  // requests reach kMaxStaleDepth.
  constexpr size_t kMaxTransitions = 5;
  constexpr uint32_t kDepthBound = kMaxStaleDepth - 1 + kMaxTransitions;
  int64_t t = 1333238400;
  int64_t point = 0;
  uint64_t forced = 0;
  uint64_t stale = 0;
  uint32_t max_depth = 0;
  for (int s = 0; s < 80; ++s) {
    std::vector<data::Point> window;
    for (size_t i = 0; i <= kMaxTransitions; ++i, ++point) {
      window.push_back({7, point % 10, t});
      t += 3 * data::kSecondsPerHour;
    }
    data::Sample sample;
    sample.user = 7;
    sample.recent = window;
    sample.target = {7, point % 10, t};
    const nn::Tensor reps = model.PrefixRepresentations(sample);
    std::vector<AdaptStatus> statuses;
    BatchAdaptStats adapt_stats;
    (void)store.BatchObserveAndPredictEncoded(
        model, {{&sample, SessionStore::RepsView(reps)}}, deferred,
        &statuses, &adapt_stats);
    if (statuses[0] == AdaptStatus::kStaleAdapt) {
      ++stale;
      max_depth = std::max(max_depth, adapt_stats.stale_depth[0]);
    } else {
      // Forced inline: the backlog drained and this request ingested.
      ASSERT_EQ(statuses[0], AdaptStatus::kAdapted) << "request " << s;
      EXPECT_EQ(adapt_stats.forced_inline, 1u);
      EXPECT_EQ(store.PendingDeltaCount(), 0u);
      ++forced;
    }
    EXPECT_LE(store.PendingDeltaCount(), kDepthBound) << "request " << s;
  }
  EXPECT_GT(forced, 0u);
  EXPECT_GT(stale, 0u);
  EXPECT_LE(max_depth, kDepthBound);
  EXPECT_GE(max_depth, kMaxStaleDepth);  // the bound was reached, not idle
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

std::string ExtractedBytes(SessionStore& store, int64_t user) {
  core::OnlineAdapter::UserSnapshot snap;
  EXPECT_TRUE(store.ExtractUser(user, &snap));
  std::string bytes;
  core::OnlineAdapter::EncodeUser(snap, &bytes);
  return bytes;
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

/// Deferring overlapping windows buffers only their new transitions, and
/// draining them (lazily, at an inline request, or in the background)
/// leaves state bit-identical to serving every window inline.
TEST(SessionStoreTest, DeferredOverlappingWindowsDrainToTheInlineState) {
  core::LightMob model(SmallConfig());
  const std::vector<data::Sample> windows =
      SlidingWindows(6, 40, 8, 1333238400);
  SessionStore inline_store{SessionStoreConfig{}};
  SessionStore deferred_store{SessionStoreConfig{}};
  BatchAdaptOptions deferred;
  deferred.mode = AdaptExecMode::kDeferred;
  AdaptStatus status;
  for (size_t j = 0; j < windows.size(); ++j) {
    (void)ServeOne(inline_store, model, windows[j], BatchAdaptOptions{},
                   &status);
    const bool lazy_drain = j % 7 == 6;  // an inline request drains first
    const size_t pending = deferred_store.PendingDeltaCount();
    (void)ServeOne(deferred_store, model, windows[j],
                   lazy_drain ? BatchAdaptOptions{} : deferred, &status);
    ASSERT_EQ(status,
              lazy_drain ? AdaptStatus::kAdapted : AdaptStatus::kStaleAdapt);
    if (!lazy_drain && j > 0) {
      // One new check-in per slid window: exactly one delta is buffered.
      EXPECT_EQ(deferred_store.PendingDeltaCount(), pending + 1) << j;
    }
  }
  EXPECT_GT(deferred_store.PendingDeltaCount(), 0u);
  EXPECT_EQ(deferred_store.DrainDirtyUsers(0), 1u);
  EXPECT_EQ(deferred_store.PatternCount(6), inline_store.PatternCount(6));
  EXPECT_EQ(ExtractedBytes(deferred_store, 6), ExtractedBytes(inline_store, 6));
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
