// The tentpole pin (DESIGN.md §14): once warm, the raw inference path
// performs ZERO heap allocations per request — the raw encode of every
// recurrent family, one layer or stacked (ForwardPlanner::EncodeInto), the
// extend-by-one encode that resumes from a prefix state
// (ForwardPlanner::ExtendInto), the adapted predict
// (OnlineAdapter::PredictInto = CollectRebuildJobs + ScoreCollectedJobsInto
// over the caller's scratch), and the frozen fallback (PredictFrozenInto).
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
