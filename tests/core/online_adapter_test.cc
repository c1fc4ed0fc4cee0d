#include "core/online_adapter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>

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
  // that overflows keeps its 32 Entry slots instead of reallocating to 64.
  OnlineAdapter adapter{PttaConfig{}};
  const std::vector<float> pattern(8, 0.5f);
  adapter.Observe(1, pattern, 3, 1000);
  const size_t one_slot = adapter.ResidentBytes(1);
  for (int i = 1; i < 40; ++i) adapter.Observe(1, pattern, 3, 1000 + i);
  EXPECT_EQ(adapter.PatternCount(1), 32u);
  // A slot is its Entry plus one int8 per element.
  const size_t per_slot = sizeof(OnlineAdapter::Entry) + pattern.size();
  EXPECT_EQ(adapter.ResidentBytes(1), one_slot + 31 * per_slot);
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
  // 64 int8 plus the Entry per pattern, and one location's fixed overhead;
  // a float payload alone would be 256 bytes per pattern.
  EXPECT_LE(adapter.ResidentBytes(1), 32u * 112u + 256u);
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
  // Deferred ingest buffers nothing either, and the watermark stands.
  EXPECT_EQ(adapter.ObserveDeferred(1, {INFINITY, 0, 0, 0}, 4, 2000), 0u);
  EXPECT_EQ(adapter.PendingCount(1), 0u);
  EXPECT_EQ(adapter.DirtyUserCount(), 0u);
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

/// The deferred-drain parity invariant (DESIGN.md §16): buffering a mixed
/// observation sequence through ObserveDeferred and draining leaves the
/// knowledge base bit-identical to inline Observe calls of the same
/// sequence — including interleavings where some observations went inline.
TEST(OnlineAdapterTest, DeferredDrainMatchesInlineBitIdentically) {
  LightMob model(SmallConfig());
  OnlineAdapter inline_run{PttaConfig{}};
  OnlineAdapter deferred_run{PttaConfig{}};
  const int64_t user = 2;  // must index into SmallConfig's user embedding
  int64_t t = 1333238400;
  for (int i = 0; i < 50; ++i) {
    std::vector<float> pattern(8, 0.0f);
    pattern[static_cast<size_t>(i % 8)] = 1.0f + static_cast<float>(i) * 0.25f;
    const int64_t location = i % 7;
    inline_run.Observe(user, pattern, location, t);
    if (i % 3 == 0) {
      // Interleaved inline observation: the deferred adapter must drain its
      // backlog first or the arrival order would fork.
      deferred_run.DrainPending(user);
      deferred_run.Observe(user, pattern, location, t);
    } else {
      deferred_run.ObserveDeferred(user, std::move(pattern), location, t);
    }
    t += 3600;
  }
  EXPECT_GT(deferred_run.PendingCount(user), 0u);
  EXPECT_EQ(deferred_run.DirtyUserCount(), 1u);
  deferred_run.DrainPending(user);
  EXPECT_EQ(deferred_run.PendingCount(user), 0u);
  EXPECT_EQ(deferred_run.DirtyUserCount(), 0u);
  EXPECT_EQ(StateBytes(deferred_run, user), StateBytes(inline_run, user));

  // And the adapted predictions agree bit for bit.
  data::Sample s = MakeSample(user, {2, 4, 6}, 1, t);
  nn::Tensor reps = model.PrefixRepresentations(s);
  const int64_t hidden = reps.cols();
  std::vector<float> query(reps.data().end() - hidden, reps.data().end());
  const std::vector<float> a =
      inline_run.Predict(model, user, query, s.target.timestamp);
  const std::vector<float> b =
      deferred_run.Predict(model, user, query, s.target.timestamp);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]) << i;
}

/// Pending coalescing is exact: with > kMaxCandidatesPerLocation deltas
/// buffered for one location, the oldest are dropped — which is provably
/// what Observe's FIFO cap would have done on drain, so the post-drain
/// state still matches the inline run of the *full* sequence.
TEST(OnlineAdapterTest, PendingCoalescingDropsOnlyWhatTheFifoCapWould) {
  OnlineAdapter inline_run{PttaConfig{}};
  OnlineAdapter deferred_run{PttaConfig{}};
  const int64_t user = 2;
  size_t coalesced = 0;
  for (int i = 0; i < 100; ++i) {
    std::vector<float> pattern(4, static_cast<float>(i));
    inline_run.Observe(user, pattern, 3, 1000 + i);
    coalesced +=
        deferred_run.ObserveDeferred(user, std::move(pattern), 3, 1000 + i);
  }
  // The buffer is bounded exactly like the knowledge base.
  EXPECT_EQ(deferred_run.PendingCount(user), 32u);
  EXPECT_EQ(coalesced, 100u - 32u);
  EXPECT_EQ(deferred_run.DrainPending(user), 32u);
  EXPECT_EQ(StateBytes(deferred_run, user), StateBytes(inline_run, user));
  EXPECT_EQ(deferred_run.PatternCount(user), 32u);
}

/// The user wire codec carries pending deltas, and stays byte-identical to
/// the pre-deferral encoding for clean users (the backward-compat contract:
/// old snapshots decode as pending-free, new clean frames decode under old
/// expectations).
TEST(OnlineAdapterTest, PendingSectionRoundTripsAndCleanUsersAreUnchanged) {
  OnlineAdapter adapter{PttaConfig{}};
  const int64_t user = 9;
  adapter.Observe(user, {1, 2, 3, 4}, 5, 1000);
  const std::string clean_bytes = StateBytes(adapter, user);

  adapter.ObserveDeferred(user, {5, 6, 7, 8}, 2, 2000);
  adapter.ObserveDeferred(user, {9, 10, 11, 12}, 5, 3000);
  const OnlineAdapter::UserSnapshot snap = adapter.ExportUser(user);
  ASSERT_EQ(snap.pending.size(), 2u);
  std::string dirty_bytes;
  OnlineAdapter::EncodeUser(snap, &dirty_bytes);
  // The pending section is strictly appended: the clean prefix is intact.
  ASSERT_GT(dirty_bytes.size(), clean_bytes.size());
  EXPECT_EQ(dirty_bytes.compare(0, clean_bytes.size(), clean_bytes), 0);

  OnlineAdapter::UserSnapshot back;
  ASSERT_TRUE(static_cast<bool>(OnlineAdapter::DecodeUser(dirty_bytes, &back)));
  ASSERT_EQ(back.pending.size(), 2u);
  EXPECT_EQ(back.pending[0].pattern, snap.pending[0].pattern);
  EXPECT_EQ(back.pending[0].next_location, 2);
  EXPECT_EQ(back.pending[0].timestamp, 2000);
  EXPECT_EQ(back.pending[1].next_location, 5);

  // Old-format bytes (exactly what a clean user encodes to) decode with an
  // empty pending buffer, not an error.
  OnlineAdapter::UserSnapshot old_format;
  ASSERT_TRUE(
      static_cast<bool>(OnlineAdapter::DecodeUser(clean_bytes, &old_format)));
  EXPECT_TRUE(old_format.pending.empty());

  // Adopt of the dirty snapshot round-trips through a fresh adapter: the
  // user is dirty there too, and drains to the same final state.
  OnlineAdapter fresh{PttaConfig{}};
  OnlineAdapter::UserSnapshot copy = snap;
  fresh.Adopt(std::move(copy));
  EXPECT_EQ(fresh.PendingCount(user), 2u);
  adapter.DrainPending(user);
  fresh.DrainPending(user);
  EXPECT_EQ(StateBytes(fresh, user), StateBytes(adapter, user));
}

/// A pending-only user (buffered observations, nothing drained yet) is real
/// state: Adopt keeps it, and Forget clears both the buffer and the dirty
/// mark.
TEST(OnlineAdapterTest, PendingOnlyUsersSurviveAdoptAndForgetClearsDirty) {
  OnlineAdapter::UserSnapshot snap;
  snap.user = 6;
  OnlineAdapter::PendingDelta delta;
  delta.pattern = Q8({1, 2, 3});
  delta.next_location = 4;
  delta.timestamp = 500;
  snap.pending.push_back(delta);

  OnlineAdapter adapter{PttaConfig{}};
  adapter.Adopt(std::move(snap));
  EXPECT_EQ(adapter.UserCount(), 1u);
  EXPECT_EQ(adapter.PendingCount(6), 1u);
  EXPECT_EQ(adapter.PendingTotal(), 1u);
  EXPECT_EQ(adapter.DirtyUsers(), std::vector<int64_t>{6});

  adapter.Forget(6);
  EXPECT_EQ(adapter.UserCount(), 0u);
  EXPECT_EQ(adapter.PendingCount(6), 0u);
  EXPECT_EQ(adapter.DirtyUserCount(), 0u);

  // An adopted empty-pending + empty-locations snapshot stays absent.
  OnlineAdapter::UserSnapshot empty;
  empty.user = 6;
  adapter.Adopt(std::move(empty));
  EXPECT_EQ(adapter.UserCount(), 0u);
}

/// DrainSomePending walks dirty users in ascending order with an exact
/// budget — the deterministic background-drain primitive.
TEST(OnlineAdapterTest, DrainSomePendingHonoursBudgetInUserOrder) {
  OnlineAdapter adapter{PttaConfig{}};
  for (int64_t user : {30, 10, 20}) {
    adapter.ObserveDeferred(user, {1, 2}, 1, 100);
  }
  EXPECT_EQ(adapter.DirtyUserCount(), 3u);
  EXPECT_EQ(adapter.DrainSomePending(2), 2u);  // drains users 10 and 20
  EXPECT_EQ(adapter.DirtyUsers(), std::vector<int64_t>{30});
  EXPECT_EQ(adapter.DrainSomePending(0), 1u);  // 0 = the rest
  EXPECT_EQ(adapter.DirtyUserCount(), 0u);
  EXPECT_EQ(adapter.PendingTotal(), 0u);
}

// ---- ingest once (DESIGN.md §4.3) ---------------------------------------

/// Newest label timestamp over a user's exported entries and pending deltas
/// — the watermark's definition, recomputed from scratch.
int64_t MaxLabel(const OnlineAdapter& adapter, int64_t user) {
  const OnlineAdapter::UserSnapshot snap = adapter.ExportUser(user);
  int64_t newest = OnlineAdapter::kNoWatermark;
  for (const auto& [location, entries] : snap.locations) {
    for (const auto& entry : entries) {
      newest = std::max(newest, entry.timestamp);
    }
  }
  for (const auto& delta : snap.pending) {
    newest = std::max(newest, delta.timestamp);
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
/// watermark is skipped, inline and deferred alike.
TEST(OnlineAdapterTest, EqualOrOlderLabelThanTheWatermarkCountsAsSeen) {
  OnlineAdapter adapter{PttaConfig{}};
  EXPECT_EQ(adapter.Watermark(1), OnlineAdapter::kNoWatermark);
  adapter.Observe(1, {1, 0, 0, 0}, 3, 1000);
  EXPECT_EQ(adapter.Watermark(1), 1000);
  const std::string bytes = StateBytes(adapter, 1);
  adapter.Observe(1, {0, 1, 0, 0}, 4, 1000);  // same timestamp, new place
  adapter.Observe(1, {0, 0, 1, 0}, 5, 999);   // older than the watermark
  EXPECT_EQ(adapter.ObserveDeferred(1, {0, 0, 0, 1}, 6, 1000), 0u);
  EXPECT_EQ(adapter.ObserveDeferred(1, {0, 0, 0, 1}, 6, 10), 0u);
  EXPECT_EQ(adapter.PendingCount(1), 0u);
  EXPECT_EQ(adapter.DirtyUserCount(), 0u);
  EXPECT_EQ(StateBytes(adapter, 1), bytes);
  // Strictly later is new; a buffered delta advances the watermark too, so
  // the same check-in sent inline afterwards is not stored twice.
  EXPECT_EQ(adapter.ObserveDeferred(1, {0, 1, 0, 0}, 4, 1001), 0u);
  EXPECT_EQ(adapter.Watermark(1), 1001);
  adapter.Observe(1, {0, 1, 0, 0}, 4, 1001);
  EXPECT_EQ(adapter.PendingCount(1), 1u);
  EXPECT_EQ(adapter.PatternCount(1), 1u);
  adapter.DrainPending(1);
  EXPECT_EQ(adapter.PatternCount(1), 2u);
  EXPECT_EQ(adapter.Watermark(1), 1001);
}

/// core.kb.ingest is probed only for new transitions, and a transition the
/// fault dropped — inline or at drain time — is ingested when it is sent
/// again, because the watermark never advanced past it.
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

  // Deferred: buffering never probes; the drain does, and drops both.
  adapter.ObserveDeferred(1, {0, 1, 0, 0}, 4, 2000);
  adapter.ObserveDeferred(1, {0, 0, 1, 0}, 5, 3000);
  EXPECT_EQ(faults.StatsFor("core.kb.ingest").evaluations, 1u);
  EXPECT_EQ(adapter.Watermark(1), 3000);
  EXPECT_EQ(adapter.DrainPending(1), 2u);
  EXPECT_EQ(faults.StatsFor("core.kb.ingest").evaluations, 3u);
  EXPECT_EQ(adapter.PatternCount(1), 1u);
  EXPECT_EQ(adapter.Watermark(1), 1000);  // rederived after the drops
  faults.DisarmAll();

  adapter.Observe(1, {0, 1, 0, 0}, 4, 2000);
  adapter.ObserveDeferred(1, {0, 0, 1, 0}, 5, 3000);
  adapter.DrainPending(1);
  EXPECT_EQ(adapter.PatternCount(1), 3u);
  EXPECT_EQ(adapter.Watermark(1), 3000);
}

/// The watermark is derived state: after every step of a seeded mix of
/// inline observes, deferrals, drains, export/adopt round trips and armed
/// ingest faults it equals the newest label over entries and pending
/// deltas. Few locations and a slow clock exercise the FIFO cap, exact
/// coalescing, equal and older labels, and inline observations landing
/// ahead of older pending deltas.
TEST(OnlineAdapterTest, WatermarkIsTheNewestLabelAfterEveryStep) {
  common::FaultRegistry& faults = common::FaultRegistry::Instance();
  faults.DisarmAll();
  faults.SetSeed(7);
  OnlineAdapter adapter{PttaConfig{}};
  // The one interleaving in which the FIFO drops the newest label: an
  // inline observation lands ahead of 32 older pending deltas for its
  // location, and the drain overflows that location.
  for (int64_t ts = 1; ts <= 32; ++ts) {
    adapter.ObserveDeferred(9, {1, 0, 0, 0}, 2, ts);
  }
  adapter.Observe(9, {0, 1, 0, 0}, 2, 33);
  adapter.DrainPending(9);
  EXPECT_EQ(adapter.PatternCount(9), 32u);
  EXPECT_EQ(adapter.Watermark(9), 32);
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
    std::vector<float> pattern(4, static_cast<float>(step % 17));
    switch (rng() % 8) {
      case 0:
      case 1:
      case 2:
        adapter.Observe(user, pattern, location, timestamp);
        break;
      case 3:
      case 4:
      case 5:
        adapter.ObserveDeferred(user, std::move(pattern), location, timestamp);
        break;
      case 6:
        adapter.DrainPending(user);
        break;
      default:
        adapter.Adopt(adapter.ExportUser(user));
        break;
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

/// The elastic rung's cached rebuild is resident memory: ResidentBytes
/// grows by exactly its jobs and kept-pattern bytes.
TEST(OnlineAdapterTest, RebuildCacheCountsInResidentBytes) {
  OnlineAdapter adapter{PttaConfig{}};
  const int64_t hidden = 4;
  for (int i = 0; i < 12; ++i) {
    adapter.Observe(1, {1, static_cast<float>(i), 0, 1}, i % 3, 1000 + i);
  }
  const std::vector<float> query = {1, 1, 0, 0};
  common::AlignedBuffer<float> arena;
  std::vector<OnlineAdapter::RebuildJob> jobs;
  std::vector<std::pair<float, const OnlineAdapter::Entry*>> fresh;
  adapter.CollectRebuildJobs(1, query.data(), hidden, 2000, &arena, &jobs,
                             &fresh);
  ASSERT_EQ(jobs.size(), 3u);
  size_t kept = 0;
  for (const auto& job : jobs) kept += static_cast<size_t>(job.keep);
  const size_t before = adapter.ResidentBytes(1);
  adapter.StoreRebuildCache(1, jobs, arena);
  ASSERT_TRUE(adapter.HasRebuildCache(1));
  EXPECT_EQ(adapter.ResidentBytes(1) - before,
            jobs.size() * sizeof(OnlineAdapter::RebuildJob) +
                kept * static_cast<size_t>(hidden) * sizeof(float));
}

}  // namespace
}  // namespace adamove::core
