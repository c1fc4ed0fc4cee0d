// The two-tier SessionStore: a capped hot tier over a shard::CompactStore
// cold tier. Eviction and rehydration must be invisible to predictions, and
// ExtractUser/InjectUser must move a user's whole state between stores.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
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
  c.num_users = 32;
  c.hidden_size = 8;
  c.location_emb_dim = 4;
  c.time_emb_dim = 4;
  c.user_emb_dim = 2;
  c.lambda = 0.0;
  return c;
}

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

}  // namespace
}  // namespace adamove::shard
