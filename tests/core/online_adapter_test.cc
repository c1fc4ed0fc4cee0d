#include "core/online_adapter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <random>
#include <string>

#include "common/alloc_probe.h"
#include "common/fault_injection.h"
#include "common/qfloat.h"
#include "core/lightmob.h"
#include "data/point.h"

namespace adamove::core {
namespace {

ModelConfig SmallConfig() {
  ModelConfig c;
  c.num_locations = 10;
  c.num_users = 4;
  c.hidden_size = 8;
  c.location_emb_dim = 4;
  c.time_emb_dim = 4;
  c.user_emb_dim = 2;
  c.lambda = 0.0;
  return c;
}

data::Sample MakeSample(int64_t user, std::vector<int64_t> recent,
                        int64_t target, int64_t t0 = 1333238400) {
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

TEST(OnlineAdapterTest, ObserveAccumulatesBoundedPatterns) {
  OnlineAdapter adapter{PttaConfig{}};
  std::vector<float> pattern = {1, 0, 0, 0, 0, 0, 0, 0};
  for (int i = 0; i < 100; ++i) {
    adapter.Observe(1, pattern, 3, 1000 + i);
  }
  // Per-location FIFO cap bounds memory.
  EXPECT_LE(adapter.PatternCount(1), 32u);
  EXPECT_EQ(adapter.PatternCount(2), 0u);
  adapter.Reset();
  EXPECT_EQ(adapter.PatternCount(1), 0u);
}

TEST(OnlineAdapterTest, FullLocationStaysAtThirtyTwoSlots) {
  // The FIFO drops the oldest candidate before appending, so a location
  // that overflows keeps its 32 slots: its resident footprint after 40
  // observes is the footprint after 32.
  OnlineAdapter adapter{PttaConfig{}};
  const std::vector<float> pattern(8, 0.5f);
  for (int i = 0; i < 32; ++i) adapter.Observe(1, pattern, 3, 1000 + i);
  const size_t full = adapter.ResidentBytes(1);
  for (int i = 32; i < 40; ++i) adapter.Observe(1, pattern, 3, 1000 + i);
  EXPECT_EQ(adapter.PatternCount(1), 32u);
  EXPECT_EQ(adapter.ResidentBytes(1), full);
}

// ---- stored form: q8 from ingest on (DESIGN.md §4.3) ----------------------

/// The state two adapters hold for one user, as comparable bytes (the wire
/// encoding is deterministic, so bit-identical state <=> identical bytes).
std::string StateBytes(const OnlineAdapter& adapter, int64_t user) {
  std::string bytes;
  OnlineAdapter::EncodeUser(adapter.ExportUser(user), &bytes);
  return bytes;
}

/// The q8 block the adapter stores for `pattern`.
common::QfloatBlock Q8(const std::vector<float>& pattern) {
  common::QfloatBlock block;
  common::QfloatEncode(pattern.data(), pattern.size(), &block);
  return block;
}

TEST(OnlineAdapterTest, IngestStoresTheCanonicalPattern) {
  LightMob model(SmallConfig());
  const data::Sample s = MakeSample(1, {2, 7, 2, 7, 3, 1}, 4);
  nn::Tensor reps = model.PrefixRepresentations(s);
  const int64_t hidden = reps.cols();
  OnlineAdapter adapter{PttaConfig{}};
  OnlineAdapter fed_canonical{PttaConfig{}};
  size_t changed = 0;
  for (int64_t k = 0; k + 1 < reps.rows(); ++k) {
    const std::vector<float> pattern(reps.data().begin() + k * hidden,
                                     reps.data().begin() + (k + 1) * hidden);
    std::vector<float> canonical = pattern;
    common::QfloatCanonicalize(&canonical);
    if (canonical != pattern) ++changed;
    const data::Point& label = s.recent[static_cast<size_t>(k + 1)];
    adapter.Observe(1, pattern, label.location, label.timestamp);
    fed_canonical.Observe(1, canonical, label.location, label.timestamp);

    // The stored pattern decodes to exactly the canonical floats.
    const OnlineAdapter::UserSnapshot snap = adapter.ExportUser(1);
    bool found = false;
    for (const auto& [location, entries] : snap.locations) {
      for (const OnlineAdapter::Entry& entry : entries) {
        if (entry.timestamp != label.timestamp) continue;
        std::vector<float> stored;
        common::QfloatDecode(entry.pattern, &stored);
        EXPECT_EQ(stored, canonical) << "transition " << k;
        found = true;
      }
    }
    EXPECT_TRUE(found) << "transition " << k;
  }
  ASSERT_GT(changed, 0u);  // the encoder's floats really were off the grid
  EXPECT_EQ(StateBytes(adapter, 1), StateBytes(fed_canonical, 1));

  // And predictions are bit-identical to the canonically fed adapter.
  const std::vector<float> query(reps.data().end() - hidden,
                                 reps.data().end());
  const std::vector<float> a =
      adapter.Predict(model, 1, query, s.target.timestamp);
  const std::vector<float> b =
      fed_canonical.Predict(model, 1, query, s.target.timestamp);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
}

TEST(OnlineAdapterTest, StoredPatternCostsQ8Bytes) {
  OnlineAdapter adapter{PttaConfig{}};
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<float> uniform(-1.0f, 1.0f);
  for (int i = 0; i < 32; ++i) {
    std::vector<float> pattern(64);
    for (float& x : pattern) x = uniform(rng);
    adapter.Observe(1, pattern, 3, 1000 + i);
  }
  ASSERT_EQ(adapter.PatternCount(1), 32u);
  // 64 int8 plus a 24-byte slab record per pattern, and the user's fixed
  // overhead; a float payload alone would be 256 bytes per pattern.
  EXPECT_LE(adapter.ResidentBytes(1), 32u * (24u + 64u) + 256u);
}

TEST(OnlineAdapterTest, NonFinitePatternIsNotStored) {
  OnlineAdapter adapter{PttaConfig{}};
  const std::vector<float> with_nan = {1.0f, std::nanf(""), 0.0f, 0.5f};
  // A user whose only observation is non-finite gets no state at all.
  adapter.Observe(2, with_nan, 3, 1000);
  EXPECT_FALSE(adapter.HasUser(2));
  EXPECT_EQ(adapter.Watermark(2), OnlineAdapter::kNoWatermark);

  adapter.Observe(1, {1, 0, 0, 0}, 3, 1000);
  adapter.Observe(1, with_nan, 4, 2000);
  EXPECT_EQ(adapter.PatternCount(1), 1u);
  EXPECT_EQ(adapter.Watermark(1), 1000);  // as if core.kb.ingest had fired
  // An infinite element is dropped the same way.
  adapter.Observe(1, {INFINITY, 0, 0, 0}, 4, 2000);
  EXPECT_EQ(adapter.PatternCount(1), 1u);
  EXPECT_EQ(adapter.Watermark(1), 1000);
  // A finite re-send of the same check-in is ingested.
  adapter.Observe(1, {0, 1, 0, 0}, 4, 2000);
  EXPECT_EQ(adapter.PatternCount(1), 2u);
  EXPECT_EQ(adapter.Watermark(1), 2000);
}

TEST(OnlineAdapterTest, PredictMatchesFrozenWhenEmpty) {
  LightMob model(SmallConfig());
  OnlineAdapter adapter{PttaConfig{}};
  data::Sample s = MakeSample(1, {1, 2, 3}, 4);
  nn::Tensor reps = model.PrefixRepresentations(s);
  const int64_t hidden = reps.cols();
  std::vector<float> query(reps.data().end() - hidden, reps.data().end());
  std::vector<float> adapted =
      adapter.Predict(model, 1, query, s.target.timestamp);
  std::vector<float> frozen = model.Scores(s);
  ASSERT_EQ(adapted.size(), frozen.size());
  for (size_t i = 0; i < adapted.size(); ++i) {
    EXPECT_NEAR(adapted[i], frozen[i], 1e-4f);
  }
}

TEST(OnlineAdapterTest, RepeatedObservationsBoostZeroedColumn) {
  LightMob model(SmallConfig());
  // Zero out location 7's column so its frozen score is just the bias.
  nn::Tensor weight = model.classifier().weight();
  const int64_t num_loc = model.classifier().out_features();
  for (int64_t i = 0; i < model.classifier().in_features(); ++i) {
    weight.data()[static_cast<size_t>(i * num_loc + 7)] = 0.0f;
  }
  OnlineAdapter adapter{PttaConfig{}};
  data::Sample s = MakeSample(1, {2, 7, 2, 7, 2, 7, 2}, 7);
  std::vector<float> frozen = model.Scores(s);
  std::vector<float> adapted = adapter.ObserveAndPredict(model, s);
  EXPECT_GT(adapted[7], frozen[7]);
  // State persists: a later sample of the same user still benefits.
  data::Sample later = MakeSample(1, {2}, 7, s.target.timestamp + 3600);
  std::vector<float> later_scores = adapter.ObserveAndPredict(model, later);
  EXPECT_GT(later_scores[7], model.Scores(later)[7]);
}

TEST(OnlineAdapterTest, StateIsPerUser) {
  LightMob model(SmallConfig());
  OnlineAdapter adapter{PttaConfig{}};
  adapter.ObserveAndPredict(model, MakeSample(1, {2, 7, 2, 7}, 7));
  EXPECT_GT(adapter.PatternCount(1), 0u);
  EXPECT_EQ(adapter.PatternCount(2), 0u);
}

TEST(OnlineAdapterTest, OldPatternsAgeOut) {
  LightMob model(SmallConfig());
  nn::Tensor weight = model.classifier().weight();
  const int64_t num_loc = model.classifier().out_features();
  for (int64_t i = 0; i < model.classifier().in_features(); ++i) {
    weight.data()[static_cast<size_t>(i * num_loc + 7)] = 0.0f;
  }
  OnlineAdapter adapter{PttaConfig{}, /*max_age_seconds=*/3600};
  data::Sample s = MakeSample(1, {2, 7, 2, 7, 2}, 7);
  adapter.ObserveAndPredict(model, s);
  // A query far in the future finds only stale patterns -> frozen scores.
  data::Sample future = MakeSample(1, {2}, 7,
                                   s.target.timestamp + 100 * 24 * 3600);
  nn::Tensor reps = model.PrefixRepresentations(future);
  const int64_t hidden = reps.cols();
  std::vector<float> query(reps.data().end() - hidden, reps.data().end());
  std::vector<float> scores =
      adapter.Predict(model, 1, query, future.target.timestamp);
  EXPECT_NEAR(scores[7], model.Scores(future)[7], 1e-4f);
}

// ---- ingest once (DESIGN.md §4.3) ---------------------------------------

/// Newest label timestamp over a user's exported entries — the watermark's
/// definition, recomputed from scratch.
int64_t MaxLabel(const OnlineAdapter& adapter, int64_t user) {
  const OnlineAdapter::UserSnapshot snap = adapter.ExportUser(user);
  int64_t newest = OnlineAdapter::kNoWatermark;
  for (const auto& [location, entries] : snap.locations) {
    for (const auto& entry : entries) {
      newest = std::max(newest, entry.timestamp);
    }
  }
  return newest;
}

TEST(OnlineAdapterTest, SameWindowTwiceLeavesStateUnchanged) {
  LightMob model(SmallConfig());
  OnlineAdapter adapter{PttaConfig{}};
  const data::Sample s = MakeSample(1, {2, 7, 2, 7, 3, 1}, 4);
  const std::vector<float> first = adapter.ObserveAndPredict(model, s);
  const std::string bytes = StateBytes(adapter, 1);
  EXPECT_EQ(adapter.PatternCount(1), s.recent.size() - 1);
  const std::vector<float> second = adapter.ObserveAndPredict(model, s);
  EXPECT_EQ(StateBytes(adapter, 1), bytes);
  EXPECT_EQ(second, first);  // same state, same query: same answer
}

TEST(OnlineAdapterTest, WindowExtendedByOneCheckInAddsOneEntry) {
  LightMob model(SmallConfig());
  OnlineAdapter adapter{PttaConfig{}};
  const data::Sample s = MakeSample(1, {2, 7, 2, 7, 3}, 4);
  adapter.ObserveAndPredict(model, s);
  ASSERT_EQ(adapter.PatternCount(1), 4u);
  // The next request carries the same window plus the check-in the last
  // one predicted: exactly one transition is new.
  data::Sample next = s;
  next.recent.push_back(s.target);
  next.target = {1, 5, s.target.timestamp + 3 * data::kSecondsPerHour};
  adapter.ObserveAndPredict(model, next);
  EXPECT_EQ(adapter.PatternCount(1), 5u);
  EXPECT_EQ(adapter.Watermark(1), s.target.timestamp);
  // A slid window (oldest point dropped) adds nothing it already holds.
  data::Sample slid = next;
  slid.recent.erase(slid.recent.begin());
  adapter.ObserveAndPredict(model, slid);
  EXPECT_EQ(adapter.PatternCount(1), 5u);
}

/// Edge cases of the rule: a label equal to the watermark counts as seen
/// (the NYC-like stream has 52 of 1,540,329 window transitions sharing a
/// timestamp with the point before them), and a label older than the
/// watermark is skipped.
TEST(OnlineAdapterTest, EqualOrOlderLabelThanTheWatermarkCountsAsSeen) {
  OnlineAdapter adapter{PttaConfig{}};
  EXPECT_EQ(adapter.Watermark(1), OnlineAdapter::kNoWatermark);
  adapter.Observe(1, {1, 0, 0, 0}, 3, 1000);
  EXPECT_EQ(adapter.Watermark(1), 1000);
  const std::string bytes = StateBytes(adapter, 1);
  adapter.Observe(1, {0, 1, 0, 0}, 4, 1000);  // same timestamp, new place
  adapter.Observe(1, {0, 0, 1, 0}, 5, 999);   // older than the watermark
  EXPECT_EQ(StateBytes(adapter, 1), bytes);
  // Strictly later is new, and advances the watermark, so the same
  // check-in sent again is not stored twice.
  adapter.Observe(1, {0, 1, 0, 0}, 4, 1001);
  EXPECT_EQ(adapter.Watermark(1), 1001);
  adapter.Observe(1, {0, 1, 0, 0}, 4, 1001);
  EXPECT_EQ(adapter.PatternCount(1), 2u);
  EXPECT_EQ(adapter.Watermark(1), 1001);
}

/// core.kb.ingest is probed only for new transitions, and a transition the
/// fault dropped is ingested when it is sent again, because the watermark
/// never advanced past it.
TEST(OnlineAdapterTest, IngestFaultDropIsIngestedWhenSentAgain) {
  common::FaultRegistry& faults = common::FaultRegistry::Instance();
  faults.DisarmAll();
  OnlineAdapter adapter{PttaConfig{}};
  adapter.Observe(1, {1, 0, 0, 0}, 3, 1000);

  faults.Arm("core.kb.ingest", common::FaultSpec{1.0, 0, true});
  adapter.Observe(1, {1, 0, 0, 0}, 3, 1000);  // seen: not probed
  EXPECT_EQ(faults.StatsFor("core.kb.ingest").evaluations, 0u);
  adapter.Observe(1, {0, 1, 0, 0}, 4, 2000);  // new: probed and dropped
  EXPECT_EQ(faults.StatsFor("core.kb.ingest").evaluations, 1u);
  EXPECT_EQ(adapter.PatternCount(1), 1u);
  EXPECT_EQ(adapter.Watermark(1), 1000);
  faults.DisarmAll();

  adapter.Observe(1, {0, 1, 0, 0}, 4, 2000);
  EXPECT_EQ(adapter.PatternCount(1), 2u);
  EXPECT_EQ(adapter.Watermark(1), 2000);
}

/// The watermark is derived state: after every step of a seeded mix of
/// observes, export/adopt round trips and armed ingest faults it equals the
/// newest label over the entries. Few locations and a slow clock exercise
/// the FIFO cap and equal and older labels.
TEST(OnlineAdapterTest, WatermarkIsTheNewestLabelAfterEveryStep) {
  common::FaultRegistry& faults = common::FaultRegistry::Instance();
  faults.DisarmAll();
  faults.SetSeed(7);
  OnlineAdapter adapter{PttaConfig{}};
  // An adopted location whose oldest entry holds the newest label: the
  // next observe there drops it, and the new label is the watermark.
  OnlineAdapter::UserSnapshot snap;
  snap.user = 9;
  snap.locations.emplace_back(2, std::vector<OnlineAdapter::Entry>{});
  for (int64_t ts = 32; ts >= 1; --ts) {
    snap.locations.back().second.push_back({Q8({1, 0, 0, 0}), ts});
  }
  adapter.Adopt(std::move(snap));
  EXPECT_EQ(adapter.Watermark(9), 32);
  adapter.Observe(9, {0, 1, 0, 0}, 2, 33);
  EXPECT_EQ(adapter.PatternCount(9), 32u);
  EXPECT_EQ(adapter.Watermark(9), 33);
  EXPECT_EQ(adapter.Watermark(9), MaxLabel(adapter, 9));
  adapter.Reset();
  std::mt19937_64 rng(42);
  int64_t clock = 1000;
  size_t drops = 0;
  for (int step = 0; step < 4000; ++step) {
    const int64_t user = static_cast<int64_t>(rng() % 3);
    const int64_t location = static_cast<int64_t>(rng() % 3);
    clock += static_cast<int64_t>(rng() % 3);  // 0 repeats the timestamp
    const int64_t timestamp = clock - static_cast<int64_t>(rng() % 2) * 5;
    const std::vector<float> pattern(4, static_cast<float>(step % 17));
    if (rng() % 8 < 7) {
      adapter.Observe(user, pattern, location, timestamp);
    } else {
      adapter.Adopt(adapter.ExportUser(user));
    }
    if (rng() % 50 == 0) {
      if (faults.IsArmed("core.kb.ingest")) {
        drops += faults.StatsFor("core.kb.ingest").fired;
        faults.DisarmAll();
      } else {
        faults.Arm("core.kb.ingest", common::FaultSpec{0.3, 0, true});
      }
    }
    for (int64_t u = 0; u < 3; ++u) {
      ASSERT_EQ(adapter.Watermark(u), MaxLabel(adapter, u))
          << "user " << u << " after step " << step;
    }
  }
  faults.DisarmAll();
  EXPECT_GT(drops, 0u);  // the faults really fired
}

// ---- the flat slab against the nested layout it replaced -----------------

/// The knowledge base in the nested layout the slab replaced — per user, a
/// map from location to a deque of q8 entries — under the same ingest rule,
/// 32-entry FIFO, watermark and Adopt policy, ranking each
/// location's deque the way the old adapter did. Scoring reuses the
/// adapter's static phase 2, which holds no knowledge-base state.
class NestedReference {
 public:
  explicit NestedReference(int64_t max_age) : max_age_(max_age) {}

  void Observe(int64_t user, const std::vector<float>& pattern,
               int64_t location, int64_t timestamp) {
    if (timestamp <= Watermark(user) || !Encodable(pattern)) return;
    Append(users_[user], location, {Q8(pattern), timestamp});
  }
  void Forget(int64_t user) { users_.erase(user); }
  void Adopt(const OnlineAdapter::UserSnapshot& snap) {
    User u;
    for (const auto& [location, entries] : snap.locations) {
      std::deque<OnlineAdapter::Entry> kept;
      for (const auto& e : entries) {
        if (!e.pattern.q.empty()) kept.push_back(e);
      }
      while (kept.size() > kCap) kept.pop_front();
      if (!kept.empty()) u.by_location[location] = kept;  // last one wins
    }
    users_.erase(snap.user);
    if (u.by_location.empty()) return;
    u.watermark = MaxLabel(u);
    users_[snap.user] = std::move(u);
  }
  OnlineAdapter::UserSnapshot Export(int64_t user) const {
    OnlineAdapter::UserSnapshot snap;
    snap.user = user;
    auto it = users_.find(user);
    if (it == users_.end()) return snap;
    for (const auto& [location, entries] : it->second.by_location) {
      snap.locations.emplace_back(
          location,
          std::vector<OnlineAdapter::Entry>(entries.begin(), entries.end()));
    }
    return snap;
  }
  std::vector<float> Predict(const AdaptableModel& model, int64_t user,
                             const std::vector<float>& query,
                             int64_t query_time) const {
    common::AlignedBuffer<float> arena;
    std::vector<OnlineAdapter::RebuildJob> jobs;
    double norm = 0;
    for (float x : query) norm += static_cast<double>(x) * x;
    norm = std::sqrt(norm);
    auto it = users_.find(user);
    for (const auto& [location, entries] :
         it == users_.end() ? Locations{} : it->second.by_location) {
      std::vector<std::pair<float, const OnlineAdapter::Entry*>> fresh;
      for (const auto& e : entries) {
        if (max_age_ > 0 && query_time - e.timestamp > max_age_) continue;
        fresh.emplace_back(common::QfloatCosine(query.data(), norm, e.pattern),
                           &e);
      }
      if (fresh.empty()) continue;
      const size_t keep =
          std::min(fresh.size(), static_cast<size_t>(PttaConfig{}.capacity));
      std::partial_sort(
          fresh.begin(), fresh.begin() + keep, fresh.end(),
          [](const auto& a, const auto& b) { return a.first > b.first; });
      jobs.push_back({location, static_cast<int64_t>(keep), arena.size()});
      arena.Resize(arena.size() + keep * query.size());
      for (size_t k = 0; k < keep; ++k) {
        common::QfloatDecodeInto(fresh[k].second->pattern,
                                 arena.data() + jobs.back().arena_offset +
                                     k * query.size());
      }
    }
    std::vector<float> scores;
    OnlineAdapter::ScoreCollectedJobsInto(model, query.data(),
                                          static_cast<int64_t>(query.size()),
                                          jobs, arena, &scores);
    return scores;
  }
  int64_t Watermark(int64_t user) const {
    auto it = users_.find(user);
    return it == users_.end() ? OnlineAdapter::kNoWatermark
                              : it->second.watermark;
  }

 private:
  static constexpr size_t kCap = 32;
  using Locations = std::map<int64_t, std::deque<OnlineAdapter::Entry>>;
  struct User {
    Locations by_location;
    int64_t watermark = OnlineAdapter::kNoWatermark;
  };
  static bool Encodable(const std::vector<float>& p) {
    return common::QfloatEncodable(p.data(), p.size());
  }
  static void Append(User& u, int64_t location, OnlineAdapter::Entry entry) {
    auto& entries = u.by_location[location];
    if (entries.size() >= kCap) entries.pop_front();
    u.watermark = std::max(u.watermark, entry.timestamp);
    entries.push_back(std::move(entry));
  }
  static int64_t MaxLabel(const User& u) {
    int64_t newest = OnlineAdapter::kNoWatermark;
    for (const auto& [location, entries] : u.by_location) {
      for (const auto& e : entries) newest = std::max(newest, e.timestamp);
    }
    return newest;
  }

  int64_t max_age_;
  std::map<int64_t, User> users_;
};

/// A seeded random mix of every mutating call, applied to the slab adapter
/// and the nested reference: after each step both hold the same bytes, the
/// same watermark and answer with the same bits. User 0 takes half the
/// traffic over two locations (FIFO overflow); user 3 mixes in a second
/// pattern dimension (it is never queried: a query needs one dimension);
/// the clock repeats and goes back (equal and older labels); entries age
/// out; Adopt gets an unsorted snapshot with repeated locations.
TEST(OnlineAdapterTest, SlabMatchesNestedReferenceUnderRandomOps) {
  LightMob model(SmallConfig());
  const auto hidden = static_cast<size_t>(model.classifier().in_features());
  constexpr int64_t kMaxAge = 400;
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<float> uniform(-1.0f, 1.0f);
    OnlineAdapter adapter{PttaConfig{}, kMaxAge};
    NestedReference reference(kMaxAge);
    int64_t clock = 1000;
    size_t most = 0;
    for (int step = 0; step < 2000; ++step) {
      const int64_t user =
          std::max<int64_t>(0, static_cast<int64_t>(rng() % 6) - 2);
      const size_t dim = user == 3 && rng() % 2 == 0 ? 5 : hidden;
      std::vector<float> pattern(dim);
      for (float& x : pattern) x = uniform(rng);
      const auto location =
          static_cast<int64_t>(rng() % (user == 0 ? 2 : 10));
      clock += static_cast<int64_t>(rng() % 3);
      const int64_t timestamp = clock - (rng() % 4 == 0 ? 7 : 0);
      const uint64_t op = rng() % 1000;
      if (op < 840) {
        adapter.Observe(user, pattern, location, timestamp);
        reference.Observe(user, pattern, location, timestamp);
      } else if (op < 995) {
        OnlineAdapter::UserSnapshot snap = adapter.ExportUser(user);
        std::reverse(snap.locations.begin(), snap.locations.end());
        if (!snap.locations.empty()) {
          // A later, longer copy of one location wins; a later copy that
          // holds only an empty pattern does not.
          auto repeated = snap.locations.back();
          repeated.second.push_back({Q8(pattern), timestamp});
          snap.locations.push_back(repeated);
          snap.locations.push_back({repeated.first, {OnlineAdapter::Entry{}}});
        }
        reference.Adopt(snap);
        adapter.Adopt(std::move(snap));
      } else {
        adapter.Forget(user);
        reference.Forget(user);
      }
      most = std::max(most, adapter.PatternCount(0));
      for (int64_t u = 0; u < 4; ++u) {
        std::string want;
        OnlineAdapter::EncodeUser(reference.Export(u), &want);
        ASSERT_EQ(StateBytes(adapter, u), want)
            << "user " << u << " after step " << step;
        ASSERT_EQ(adapter.Watermark(u), reference.Watermark(u))
            << "user " << u << " after step " << step;
        if (u == 3) continue;
        std::vector<float> query(hidden);
        for (float& x : query) x = uniform(rng);
        const std::vector<float> got =
            adapter.Predict(model, u, query, clock);
        const std::vector<float> ref =
            reference.Predict(model, u, query, clock);
        ASSERT_EQ(got.size(), ref.size());
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], ref[i])
              << "user " << u << " score " << i << " after step " << step;
        }
      }
    }
    EXPECT_EQ(most, 64u);  // both of user 0's locations filled up
  }
}

/// The slab is two arrays per user: after 64 observes over 8 locations the
/// user holds at most 4 live heap blocks — its map node, the adapter's
/// bucket array, the record array and the int8 array — where the nested
/// layout held one per pattern plus about two per location.
TEST(OnlineAdapterTest, SixtyFourPatternsLiveInAtMostFourHeapBlocks) {
  if (!common::AllocProbeAvailable()) {
    GTEST_SKIP() << "probe disabled (sanitizer)";
  }
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<float> uniform(-1.0f, 1.0f);
  std::vector<std::vector<float>> patterns(64, std::vector<float>(16));
  for (auto& pattern : patterns) {
    for (float& x : pattern) x = uniform(rng);
  }
  OnlineAdapter adapter{PttaConfig{}};
  common::AllocProbeScope probe;
  for (int i = 0; i < 64; ++i) {
    adapter.Observe(1, patterns[static_cast<size_t>(i)], i % 8, 1000 + i);
  }
  EXPECT_LE(probe.allocations() - probe.frees(), 4u);
  EXPECT_EQ(adapter.PatternCount(1), 64u);
}

}  // namespace
}  // namespace adamove::core
