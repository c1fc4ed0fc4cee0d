#include "core/ptta.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/lightmob.h"
#include "data/point.h"

namespace adamove::core {
namespace {

// A deterministic classifier with hand-set weights for the algebraic tests.
class FixedClassifierFixture : public ::testing::Test {
 protected:
  FixedClassifierFixture() : rng_(1), classifier_(2, 3, rng_, true) {
    // Θ (H=2, L=3): column l = θ_l.
    // θ_0 = (1, 0), θ_1 = (0, 1), θ_2 = (1, 1)
    classifier_.weight().data() = {1, 0, 1,
                                   0, 1, 1};
    classifier_.bias().data() = {0, 0, 0};
  }
  common::Rng rng_;
  nn::Linear classifier_;
};

TEST_F(FixedClassifierFixture, WeightUpdateAveragesPatternsWithTheta) {
  // reps: three prefix patterns + the test pattern h_test = (1, 0).
  nn::Tensor reps = nn::Tensor::FromVector(
      {4, 2}, {1, 0,    // h_0, label 1
               0, 2,    // h_1, label 1
               3, 0,    // h_2, label 0
               1, 0});  // h_test
  PttaConfig config;  // PTTA: similarity importance, true labels
  config.capacity = 5;
  TestTimeAdapter adapter(config);
  AdapterStats stats;
  std::vector<float> adjusted =
      adapter.AdjustedWeights(reps, {1, 1, 0}, classifier_, &stats);
  EXPECT_EQ(stats.patterns_generated, 3);
  EXPECT_EQ(stats.columns_updated, 2);
  // θ'_0 = mean(θ_0=(1,0), h_2=(3,0)) = (2, 0)
  EXPECT_FLOAT_EQ(adjusted[0 * 3 + 0], 2.0f);
  EXPECT_FLOAT_EQ(adjusted[1 * 3 + 0], 0.0f);
  // θ'_1 = mean(θ_1=(0,1), h_0=(1,0), h_1=(0,2)) = (1/3, 1)
  EXPECT_NEAR(adjusted[0 * 3 + 1], 1.0f / 3.0f, 1e-6f);
  EXPECT_NEAR(adjusted[1 * 3 + 1], 1.0f, 1e-6f);
  // θ'_2 untouched (no pattern labeled 2).
  EXPECT_FLOAT_EQ(adjusted[0 * 3 + 2], 1.0f);
  EXPECT_FLOAT_EQ(adjusted[1 * 3 + 2], 1.0f);
}

TEST_F(FixedClassifierFixture, CapacityKeepsMostSimilarPatterns) {
  // h_test = (1, 0). Patterns all labeled 0 with decreasing similarity:
  // (1,0) sim 1; (1,1) sim ~0.707; (0,1) sim 0.
  nn::Tensor reps = nn::Tensor::FromVector(
      {4, 2}, {1, 0, 1, 1, 0, 1, 1, 0});
  PttaConfig config;
  config.capacity = 2;  // keep the two most similar of the three
  TestTimeAdapter adapter(config);
  std::vector<float> adjusted =
      adapter.AdjustedWeights(reps, {0, 0, 0}, classifier_, nullptr);
  // Kept: (1,0) and (1,1); θ'_0 = mean((1,0), (1,0), (1,1)) = (1, 1/3).
  EXPECT_NEAR(adjusted[0 * 3 + 0], 1.0f, 1e-6f);
  EXPECT_NEAR(adjusted[1 * 3 + 0], 1.0f / 3.0f, 1e-6f);
}

TEST_F(FixedClassifierFixture, EntropyImportanceSelectsConfidentPatterns) {
  // Pattern (10,0): very confident (low entropy). Pattern (0.01, 0.01):
  // near-uniform logits (high entropy). With capacity 1 and entropy
  // importance, the confident one is kept.
  nn::Tensor reps = nn::Tensor::FromVector(
      {3, 2}, {10, 0, 0.01f, 0.01f, 1, 0});
  PttaConfig config;
  config.capacity = 1;
  config.similarity_importance = false;  // "w/ ent" variant
  TestTimeAdapter adapter(config);
  std::vector<float> adjusted =
      adapter.AdjustedWeights(reps, {0, 0}, classifier_, nullptr);
  // θ'_0 = mean(θ_0=(1,0), (10,0)) = (5.5, 0)
  EXPECT_NEAR(adjusted[0 * 3 + 0], 5.5f, 1e-5f);
  EXPECT_NEAR(adjusted[1 * 3 + 0], 0.0f, 1e-5f);
}

TEST(TopMBufferTest, KeepsTopMOfRandomStreams) {
  // Against a full sort: the cached minimum must track every replacement.
  common::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const int capacity = 1 + static_cast<int>(rng.UniformInt(0, 7));
    TopMBuffer buf(capacity);
    std::vector<std::pair<float, int>> offered;
    for (int i = 0; i < 50; ++i) {
      const float imp = static_cast<float>(rng.Uniform(-1.0, 1.0));
      buf.Offer(imp, i);
      offered.emplace_back(imp, i);
    }
    std::sort(offered.rbegin(), offered.rend());
    std::vector<int> want;
    for (int k = 0; k < capacity; ++k) want.push_back(offered[k].second);
    std::vector<int> got = buf.Ids();
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << "trial " << trial;
  }
}

TEST(TopMBufferTest, KeepsLargestImportances) {
  TopMBuffer buf(2);
  buf.Offer(0.1f, 0);
  buf.Offer(0.9f, 1);
  buf.Offer(0.5f, 2);
  buf.Offer(0.7f, 3);
  auto ids = buf.Ids();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<int>{1, 3}));
}

// --- End-to-end adapter behaviour on a real model -------------------------

class PttaModelTest : public ::testing::Test {
 protected:
  PttaModelTest() {
    config_.num_locations = 12;
    config_.num_users = 3;
    config_.hidden_size = 16;
    config_.location_emb_dim = 8;
    config_.time_emb_dim = 4;
    config_.user_emb_dim = 4;
    config_.lambda = 0.0;
    model_ = std::make_unique<LightMob>(config_);
  }

  data::Sample MakeSample(std::vector<int64_t> locations,
                          int64_t target) const {
    data::Sample s;
    s.user = 1;
    int64_t t = 1333238400;
    for (int64_t l : locations) {
      s.recent.push_back({s.user, l, t});
      t += 3 * data::kSecondsPerHour;
    }
    s.target = {s.user, target, t};
    return s;
  }

  ModelConfig config_;
  std::unique_ptr<LightMob> model_;
};

TEST_F(PttaModelTest, AdaptationBoostsRepeatedTrueLabel) {
  // Zero out location 7's classifier column: the frozen model can only give
  // it the bias. PTTA sees 7 as the true next location of several prefixes
  // whose patterns resemble the test pattern (same repeating trajectory),
  // so the adapted column — a centroid of those patterns — must score
  // strictly higher than the frozen column.
  nn::Tensor weight = model_->classifier().weight();
  const int64_t num_loc = model_->classifier().out_features();
  for (int64_t i = 0; i < model_->classifier().in_features(); ++i) {
    weight.data()[static_cast<size_t>(i * num_loc + 7)] = 0.0f;
  }
  data::Sample sample = MakeSample({2, 7, 2, 7, 2, 7, 2}, 7);
  std::vector<float> frozen = model_->Scores(sample);
  TestTimeAdapter adapter(PttaConfig{});
  std::vector<float> adapted = adapter.Predict(*model_, sample);
  EXPECT_GT(adapted[7], frozen[7]);
  // Columns with no labeled pattern are untouched (e.g. location 0).
  EXPECT_FLOAT_EQ(adapted[0], frozen[0]);
}

TEST_F(PttaModelTest, SingletonTrajectoryFallsBackToFrozen) {
  data::Sample sample = MakeSample({4}, 5);
  TestTimeAdapter adapter(PttaConfig{});
  std::vector<float> adapted = adapter.Predict(*model_, sample);
  std::vector<float> frozen = model_->Scores(sample);
  ASSERT_EQ(adapted.size(), frozen.size());
  for (size_t i = 0; i < adapted.size(); ++i) {
    EXPECT_NEAR(adapted[i], frozen[i], 1e-4f);
  }
}

TEST_F(PttaModelTest, AdapterDoesNotMutateModel) {
  data::Sample sample = MakeSample({2, 7, 2, 7, 2}, 7);
  const std::vector<float> weights_before =
      model_->classifier().weight().data();
  TestTimeAdapter adapter(PttaConfig{});
  adapter.Predict(*model_, sample);
  EXPECT_EQ(model_->classifier().weight().data(), weights_before);
}

TEST_F(PttaModelTest, VariantsProduceDifferentScores) {
  data::Sample sample = MakeSample({2, 7, 3, 7, 2, 9, 2}, 7);
  PttaConfig ptta;                       // similarity + true labels
  PttaConfig ent = ptta;
  ent.similarity_importance = false;     // w/ ent
  ent.capacity = 1;
  PttaConfig pseudo = ptta;
  pseudo.use_true_labels = false;        // w/ pseudo-label
  const auto s_ptta = TestTimeAdapter(ptta).Predict(*model_, sample);
  const auto s_ent = TestTimeAdapter(ent).Predict(*model_, sample);
  const auto s_pseudo = TestTimeAdapter(pseudo).Predict(*model_, sample);
  EXPECT_NE(s_ptta, s_pseudo);
  EXPECT_NE(s_ptta, s_ent);
}

TEST_F(PttaModelTest, T3aConfigIsPseudoLabelPlusEntropy) {
  PttaConfig t3a = T3aConfig(7);
  EXPECT_FALSE(t3a.similarity_importance);
  EXPECT_FALSE(t3a.use_true_labels);
  EXPECT_EQ(t3a.capacity, 7);
}

TEST_F(PttaModelTest, SparsePredictMatchesMaterializedAdjustedWeights) {
  // Predict() rebuilds only the adjusted columns; scoring the fully
  // materialized Θ' must give the same result.
  data::Sample sample = MakeSample({2, 7, 3, 7, 2, 9, 2}, 7);
  TestTimeAdapter adapter(PttaConfig{});
  AdapterStats predict_stats;
  const std::vector<float> sparse =
      adapter.Predict(*model_, sample, &predict_stats);

  nn::Tensor reps = model_->PrefixRepresentations(sample);
  std::vector<int64_t> labels;
  for (size_t k = 1; k < sample.recent.size(); ++k) {
    labels.push_back(sample.recent[k].location);
  }
  AdapterStats full_stats;
  const std::vector<float> adjusted = adapter.AdjustedWeights(
      reps, labels, model_->classifier(), &full_stats);
  const int64_t hidden = reps.cols();
  const int64_t num_loc = model_->classifier().out_features();
  const float* h_test = reps.data().data() + (reps.rows() - 1) * hidden;
  const auto& bias = model_->classifier().bias().data();
  for (int64_t l = 0; l < num_loc; ++l) {
    float acc = 0.0f;
    for (int64_t i = 0; i < hidden; ++i) {
      if (h_test[i] == 0.0f) continue;
      acc += h_test[i] * adjusted[static_cast<size_t>(i * num_loc + l)];
    }
    EXPECT_FLOAT_EQ(sparse[static_cast<size_t>(l)],
                    acc + bias[static_cast<size_t>(l)])
        << "location " << l;
  }

  // The sparse path touches columns_updated * H * 4 bytes — strictly fewer
  // than the full {H, L} copy the materializing path reports.
  EXPECT_EQ(predict_stats.columns_updated, full_stats.columns_updated);
  EXPECT_EQ(predict_stats.weight_bytes_touched,
            predict_stats.columns_updated * hidden *
                static_cast<int64_t>(sizeof(float)));
  EXPECT_EQ(full_stats.weight_bytes_touched,
            hidden * num_loc * static_cast<int64_t>(sizeof(float)));
  EXPECT_LT(predict_stats.weight_bytes_touched,
            full_stats.weight_bytes_touched);
}

TEST_F(PttaModelTest, DeterministicAcrossCalls) {
  data::Sample sample = MakeSample({1, 2, 3, 4, 5, 6}, 3);
  TestTimeAdapter adapter(PttaConfig{});
  EXPECT_EQ(adapter.Predict(*model_, sample),
            adapter.Predict(*model_, sample));
}

}  // namespace
}  // namespace adamove::core
