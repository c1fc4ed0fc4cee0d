// The tentpole pin (DESIGN.md §14): once warm, the raw inference path
// performs ZERO heap allocations per request — the raw encode of every
// recurrent family, one layer or stacked (ForwardPlanner::EncodeInto), the
// extend-by-one encode that resumes from a prefix state
// (ForwardPlanner::ExtendInto), the adapted predict
// (OnlineAdapter::PredictInto = CollectRebuildJobs + ScoreCollectedJobsInto
// over the caller's scratch), the frozen fallback (PredictFrozenInto), and
// the serving store's per-request call (SessionStore::ObserveAndPredictInto).
// Counted by the common/alloc_probe operator-new interposition; under
// sanitizer builds the probe is compiled out and the assertions degrade to
// plain execution (the ASan stage then proves the same requests leak-free
// instead). Runs in every scripts/check.sh stage via the `plan` label.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/alloc_probe.h"
#include "core/forward_plan.h"
#include "core/lightmob.h"
#include "core/online_adapter.h"
#include "core/ptta.h"
#include "data/dataset.h"
#include "serve/session_store.h"

namespace adamove::core {
namespace {

ModelConfig SmallConfig(EncoderType encoder = EncoderType::kLstm,
                        int64_t layers = 1) {
  ModelConfig c;
  c.num_locations = 12;
  c.num_users = 4;
  c.location_emb_dim = 6;
  c.time_emb_dim = 4;
  c.user_emb_dim = 2;
  c.hidden_size = 8;
  c.encoder = encoder;
  c.rnn_layers = layers;
  c.lambda = 0.0;
  c.seed = 31;
  return c;
}

// Each family's raw steps are their own code, so each is pinned.
struct Family {
  EncoderType encoder;
  int64_t layers;
};
constexpr Family kRawFamilies[] = {
    {EncoderType::kRnn, 1},  {EncoderType::kRnn, 2},
    {EncoderType::kLstm, 1}, {EncoderType::kLstm, 2},
    {EncoderType::kGru, 1},  {EncoderType::kGru, 2}};

std::string Name(const Family& family) {
  return EncoderTypeName(family.encoder) + " x" +
         std::to_string(family.layers);
}

data::Sample MakeSample(int64_t user, int len, int64_t t0) {
  data::Sample sample;
  sample.user = user;
  int64_t t = t0;
  for (int i = 0; i < len; ++i) {
    sample.recent.push_back({user, (user + i) % 12, t});
    t += 3 * data::kSecondsPerHour;
  }
  sample.target = {user, (user + len) % 12, t};
  return sample;
}

class ZeroAllocPredictTest : public ::testing::Test {
 protected:
  void SetUp() override {
    model_ = std::make_unique<LightMob>(SmallConfig());
    planner_ = std::make_unique<ForwardPlanner>(*model_);
    // Populate the knowledge base: several locations for the user, so the
    // adapted path genuinely collects and scores rebuild jobs.
    int64_t t = 1333238400;
    for (int i = 0; i < 24; ++i) {
      std::vector<float> pattern(8);
      for (size_t j = 0; j < pattern.size(); ++j) {
        pattern[j] = 0.1f * static_cast<float>(i + 1) - 0.05f * j;
      }
      adapter_.Observe(/*user=*/1, pattern, i % 6, t);
      t += 600;
    }
    query_time_ = t;
  }

  std::unique_ptr<LightMob> model_;
  std::unique_ptr<ForwardPlanner> planner_;
  OnlineAdapter adapter_{PttaConfig{}};
  int64_t query_time_ = 0;
};

TEST_F(ZeroAllocPredictTest, SteadyStatePlanEncodeAllocatesNothing) {
  const data::Sample sample = MakeSample(1, 6, 1333238400);
  for (const Family& family : kRawFamilies) {
    LightMob model(SmallConfig(family.encoder, family.layers));
    ForwardPlanner planner(model);
    PlanScratch scratch;
    ASSERT_TRUE(planner.EncodeInto(sample, &scratch));  // warm-up: sizes
    common::AllocProbeScope window;
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(planner.EncodeInto(sample, &scratch));
    }
    if (common::AllocProbeAvailable()) {
      EXPECT_EQ(window.allocations(), 0u)
          << Name(family) << " raw encode allocated";
      EXPECT_EQ(window.frees(), 0u) << Name(family);
    }
    EXPECT_EQ(scratch.rows, 6);
    EXPECT_EQ(scratch.cols, 8);
  }
}

TEST_F(ZeroAllocPredictTest, WarmExtendByOneEncodeAllocatesNothing) {
  // A user's window grows one check-in per request from 20 to 40 points,
  // then a session boundary restarts it. The warm-up cycle grows the state
  // and scratch to 40 rows.
  const data::Sample full = MakeSample(1, 40, 1333238400);
  auto window = [&](int len) {
    data::Sample sample = full;
    sample.recent.resize(static_cast<size_t>(len));
    return sample;
  };
  std::vector<data::Sample> cycle;
  for (int len = 20; len <= 40; ++len) cycle.push_back(window(len));
  for (const Family& family : kRawFamilies) {
    LightMob model(SmallConfig(family.encoder, family.layers));
    ForwardPlanner planner(model);
    PrefixState state;
    PlanScratch scratch;
    for (const data::Sample& sample : cycle) {
      ASSERT_TRUE(planner.ExtendInto(sample, &state, &scratch));
    }
    EXPECT_EQ(scratch.reused, 39) << Name(family);
    common::AllocProbeScope probe;
    for (int i = 0; i < 5; ++i) {
      for (const data::Sample& sample : cycle) {
        ASSERT_TRUE(planner.ExtendInto(sample, &state, &scratch));
      }
    }
    if (common::AllocProbeAvailable()) {
      EXPECT_EQ(probe.allocations(), 0u)
          << Name(family) << " extend-by-one encode allocated";
      EXPECT_EQ(probe.frees(), 0u) << Name(family);
    }
    EXPECT_EQ(scratch.rows, 40);
    EXPECT_EQ(scratch.reused, 39);
  }
}

TEST_F(ZeroAllocPredictTest, SteadyStatePredictAllocatesNothing) {
  const data::Sample sample = MakeSample(1, 6, 1333238400);
  PlanScratch encode;
  ASSERT_TRUE(planner_->EncodeInto(sample, &encode));
  OnlineAdapter::PredictScratch predict;
  AdapterStats stats;
  const float* query = encode.reps.data() + (encode.rows - 1) * encode.cols;
  // Warm-up request grows every capacity; the window then covers 100 full
  // steady-state requests (encode + adapted predict with diagnostics).
  adapter_.PredictInto(*model_, 1, query, encode.cols, query_time_, &predict,
                       &stats);
  ASSERT_GT(stats.columns_updated, 0);  // the adapted path really ran
  common::AllocProbeScope window;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(planner_->EncodeInto(sample, &encode));
    adapter_.PredictInto(*model_, 1, query, encode.cols, query_time_,
                         &predict, &stats);
  }
  if (common::AllocProbeAvailable()) {
    EXPECT_EQ(window.allocations(), 0u) << "steady-state Predict allocated";
    EXPECT_EQ(window.frees(), 0u) << "arena churned";
  }
  EXPECT_EQ(predict.scores.size(), 12u);
}

TEST_F(ZeroAllocPredictTest, SteadyStateFrozenPredictAllocatesNothing) {
  const data::Sample sample = MakeSample(2, 5, 1333238400);
  PlanScratch encode;
  ASSERT_TRUE(planner_->EncodeInto(sample, &encode));
  std::vector<float> scores;
  const float* query = encode.reps.data() + (encode.rows - 1) * encode.cols;
  OnlineAdapter::PredictFrozenInto(*model_, query, encode.cols, &scores);
  ASSERT_NO_ALLOCATIONS({
    for (int i = 0; i < 100; ++i) {
      OnlineAdapter::PredictFrozenInto(*model_, query, encode.cols, &scores);
    }
  });
  EXPECT_EQ(scores.size(), 12u);
}

TEST_F(ZeroAllocPredictTest, SteadyStateScoreCollectedJobsAllocatesNothing) {
  const data::Sample sample = MakeSample(1, 6, 1333238400);
  PlanScratch encode;
  ASSERT_TRUE(planner_->EncodeInto(sample, &encode));
  const float* query = encode.reps.data() + (encode.rows - 1) * encode.cols;
  OnlineAdapter::PredictScratch scratch;
  adapter_.PredictInto(*model_, 1, query, encode.cols, query_time_,
                       &scratch);
  ASSERT_FALSE(scratch.jobs.empty());
  std::vector<float> scores(scratch.scores);
  common::AllocProbeScope window;
  for (int i = 0; i < 100; ++i) {
    OnlineAdapter::ScoreCollectedJobsInto(*model_, query, encode.cols,
                                          scratch.jobs, scratch.arena,
                                          &scores);
  }
  if (common::AllocProbeAvailable()) {
    EXPECT_EQ(window.allocations(), 0u);
    EXPECT_EQ(window.frees(), 0u);
  }
  // And the scratch-scored result equals the canonical Predict output.
  const std::vector<float> reference = adapter_.Predict(
      *model_, 1, std::vector<float>(query, query + encode.cols),
      query_time_);
  ASSERT_EQ(scores.size(), reference.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    ASSERT_EQ(scores[i], reference[i]) << "score " << i;
  }
}

/// The serving store's per-request call: once its scratch is warm, an
/// extend-by-one request on a key whose locations all hold their full
/// candidate FIFO (so an ingest replaces the oldest pattern in place and the
/// slab cannot grow) allocates and frees nothing — fault probes, LRU touch,
/// ingest, rebuild collect and scoring included.
TEST_F(ZeroAllocPredictTest, WarmStoreRequestOnFullKeyAllocatesNothing) {
  constexpr int64_t kLocations = 4;
  constexpr size_t kWidth = 8;
  constexpr size_t kWarm = 200;  // > kLocations x 32 transitions: all full
  constexpr size_t kMeasured = 100;
  constexpr size_t kPoints = kWarm + kMeasured + kWidth + 1;
  const int64_t hidden = model_->config().hidden_size;
  // Point j's prefix row: fixed values (the store never looks inside them).
  std::vector<float> rows(kPoints * static_cast<size_t>(hidden));
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = 0.01f * static_cast<float>(i % 97) - 0.3f;
  }
  std::vector<data::Sample> windows(kWarm + kMeasured);
  for (size_t j = 0; j < windows.size(); ++j) {
    for (size_t k = j; k <= j + kWidth; ++k) {
      const data::Point point{5, static_cast<int64_t>(k) % kLocations,
                              1333238400 + static_cast<int64_t>(k) * 600};
      if (k < j + kWidth) {
        windows[j].recent.push_back(point);
      } else {
        windows[j].target = point;
      }
    }
    windows[j].user = 5;
  }
  serve::SessionStore store{serve::SessionStoreConfig{}};
  serve::SessionStore::RequestScratch scratch;
  const auto serve = [&](size_t j) {
    return store.ObserveAndPredictInto(
        *model_, windows[j],
        serve::SessionStore::RepsView(
            rows.data() + j * static_cast<size_t>(hidden),
            static_cast<int64_t>(kWidth), hidden),
        &scratch);
  };
  for (size_t j = 0; j < kWarm; ++j) {
    ASSERT_EQ(serve(j), serve::AdaptStatus::kAdapted);
  }
  const size_t full = store.PatternCount(5);
  ASSERT_EQ(full, 32u * kLocations);
  ASSERT_FALSE(scratch.jobs.empty());  // the adapted path really ran
  common::AllocProbeScope window;
  for (size_t j = kWarm; j < kWarm + kMeasured; ++j) {
    ASSERT_EQ(serve(j), serve::AdaptStatus::kAdapted);
  }
  if (common::AllocProbeAvailable()) {
    EXPECT_EQ(window.allocations(), 0u) << "warm store request allocated";
    EXPECT_EQ(window.frees(), 0u);
  }
  EXPECT_EQ(store.PatternCount(5), full);
  EXPECT_EQ(scratch.scores.size(), 12u);
}

/// The vector-returning Predict wraps the Into variants, so the arithmetic is
/// single-sourced: spot-check bit-identity. A user with no knowledge base
/// predicts exactly the frozen scores.
TEST_F(ZeroAllocPredictTest, IntoVariantsMatchLegacyApisBitExactly) {
  const data::Sample sample = MakeSample(1, 6, 1333238400);
  PlanScratch encode;
  ASSERT_TRUE(planner_->EncodeInto(sample, &encode));
  const float* query = encode.reps.data() + (encode.rows - 1) * encode.cols;
  const std::vector<float> query_vec(query, query + encode.cols);

  OnlineAdapter::PredictScratch scratch;
  adapter_.PredictInto(*model_, 1, query, encode.cols, query_time_,
                       &scratch);
  const std::vector<float> legacy =
      adapter_.Predict(*model_, 1, query_vec, query_time_);
  ASSERT_EQ(scratch.scores.size(), legacy.size());
  for (size_t i = 0; i < legacy.size(); ++i) {
    ASSERT_EQ(scratch.scores[i], legacy[i]);
  }

  std::vector<float> frozen_into;
  OnlineAdapter::PredictFrozenInto(*model_, query, encode.cols,
                                   &frozen_into);
  const std::vector<float> frozen =
      adapter_.Predict(*model_, /*user=*/99, query_vec, query_time_);
  ASSERT_EQ(frozen_into.size(), frozen.size());
  for (size_t i = 0; i < frozen.size(); ++i) {
    ASSERT_EQ(frozen_into[i], frozen[i]);
  }
}

}  // namespace
}  // namespace adamove::core
