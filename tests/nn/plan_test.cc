// Static forward plans (DESIGN.md §14): the compiled plan must be
// BIT-IDENTICAL to the autograd graph walk it replaces — same op order,
// same kernels, same roundings — across every encoder family the tracer
// supports, hidden sizes 1..17 (every vector-width remainder class), both
// kernel backends, and 1 vs 8 kernel threads. Also here: the plan cache's
// behaviour (one compile per sequence length, revalidation, invalidation)
// and the untraceable family, which is routed to the graph walk.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel_for.h"
#include "core/forward_plan.h"
#include "core/lightmob.h"
#include "data/dataset.h"
#include "nn/autograd_mode.h"
#include "nn/kernels.h"
#include "nn/tensor.h"

namespace adamove::core {
namespace {

namespace k = ::adamove::nn::kernels;

ModelConfig Config(EncoderType encoder, int64_t hidden,
                   int64_t layers = 1) {
  ModelConfig c;
  c.num_locations = 10;
  c.num_users = 4;
  c.location_emb_dim = 5;
  c.time_emb_dim = 3;
  c.user_emb_dim = 2;
  c.hidden_size = hidden;
  c.encoder = encoder;
  c.rnn_layers = layers;
  c.lambda = 0.0;
  c.seed = 29;
  return c;
}

data::Sample MakeSample(int64_t user, int len) {
  data::Sample sample;
  sample.user = user;
  int64_t t = 1333238400 + user * 977;
  for (int i = 0; i < len; ++i) {
    sample.recent.push_back({user, (user + i) % 10, t});
    t += 5 * data::kSecondsPerHour;
  }
  sample.target = {user, (user + len) % 10, t};
  return sample;
}

nn::Tensor GraphReps(LightMob& model, const data::Sample& sample) {
  nn::NoGradGuard no_grad;
  return model.trajectory_encoder()->Forward(sample.recent,
                                             /*training=*/false);
}

void ExpectPlanMatchesGraphExactly(LightMob& model,
                                   const data::Sample& sample,
                                   const char* context) {
  ForwardPlanner planner(model);
  PlanScratch scratch;
  ASSERT_TRUE(planner.EncodeInto(sample, &scratch)) << context;
  const nn::Tensor graph = GraphReps(model, sample);
  ASSERT_EQ(scratch.rows, graph.rows()) << context;
  ASSERT_EQ(scratch.cols, graph.cols()) << context;
  const float* plan = scratch.reps.data();
  for (int64_t i = 0; i < graph.rows() * graph.cols(); ++i) {
    ASSERT_EQ(plan[i], graph.data()[static_cast<size_t>(i)])
        << context << " element " << i;
  }
}

bool SimdAvailable() {
  k::SetBackendForTest(k::Backend::kSimd);
  const bool available = k::ActiveBackend() == k::Backend::kSimd;
  k::SetBackendForTest(k::Backend::kScalar);
  return available;
}

/// Restores the default dispatch state whichever way a test exits.
class PlanTest : public ::testing::Test {
 protected:
  void TearDown() override {
    k::SetBackendForTest(k::Backend::kScalar);
    common::SetKernelThreads(1);
  }
};

constexpr EncoderType kTraceableFamilies[] = {
    EncoderType::kRnn, EncoderType::kLstm, EncoderType::kGru};

TEST_F(PlanTest, BitIdenticalAcrossFamiliesDimsBackendsAndThreads) {
  std::vector<k::Backend> backends = {k::Backend::kScalar};
  if (SimdAvailable()) backends.push_back(k::Backend::kSimd);
  const data::Sample sample = MakeSample(1, 5);
  for (const k::Backend backend : backends) {
    k::SetBackendForTest(backend);
    for (const int threads : {1, 8}) {
      common::SetKernelThreads(threads);
      for (const EncoderType encoder : kTraceableFamilies) {
        for (int64_t hidden = 1; hidden <= 17; ++hidden) {
          LightMob model(Config(encoder, hidden));
          const std::string context =
              EncoderTypeName(encoder) + " hidden " + std::to_string(hidden) +
              " backend " + std::to_string(static_cast<int>(backend)) +
              " threads " + std::to_string(threads);
          ExpectPlanMatchesGraphExactly(model, sample, context.c_str());
        }
      }
    }
  }
}

TEST_F(PlanTest, BitIdenticalForStackedEncodersAndEverySequenceLength) {
  for (const EncoderType encoder : kTraceableFamilies) {
    LightMob model(Config(encoder, 9, /*layers=*/2));
    for (int len = 1; len <= 8; ++len) {
      const std::string context = EncoderTypeName(encoder) +
                                  " stacked-2 len " + std::to_string(len);
      ExpectPlanMatchesGraphExactly(model, MakeSample(2, len),
                                    context.c_str());
    }
  }
}

TEST_F(PlanTest, CacheCompilesOncePerSequenceLength) {
  LightMob model(Config(EncoderType::kLstm, 8));
  ForwardPlanner planner(model);
  ASSERT_TRUE(planner.traceable());
  PlanScratch scratch;
  ASSERT_TRUE(planner.EncodeInto(MakeSample(0, 4), &scratch));
  ASSERT_TRUE(planner.EncodeInto(MakeSample(1, 4), &scratch));
  EXPECT_EQ(planner.compiles(), 1);  // same shape -> cached plan reused
  ASSERT_TRUE(planner.EncodeInto(MakeSample(1, 6), &scratch));
  EXPECT_EQ(planner.compiles(), 2);  // new sequence length -> one compile
  planner.InvalidateAll();
  ASSERT_TRUE(planner.EncodeInto(MakeSample(0, 4), &scratch));
  EXPECT_EQ(planner.compiles(), 3);  // hot-swap hook dropped the cache
  ExpectPlanMatchesGraphExactly(model, MakeSample(0, 4), "post-invalidate");
}

TEST_F(PlanTest, UntraceableFamilyFallsBackToGraphGracefully) {
  LightMob model(Config(EncoderType::kTransformer, 8));
  ForwardPlanner planner(model);
  // There is an encoder to look at, but its sequence layer has no trace:
  // the planner knows at construction, so no request ever attempts one.
  EXPECT_FALSE(planner.traceable());
  PlanScratch scratch;
  EXPECT_FALSE(planner.EncodeInto(MakeSample(0, 4), &scratch));
  EXPECT_FALSE(planner.EncodeInto(MakeSample(0, 4), &scratch));
  EXPECT_EQ(planner.compiles(), 0);
  // The model-level API walks the graph instead, bit-identically.
  const nn::Tensor reps = model.PrefixRepresentations(MakeSample(0, 4));
  const nn::Tensor graph = GraphReps(model, MakeSample(0, 4));
  EXPECT_EQ(reps.rows(), 4);
  EXPECT_EQ(reps.cols(), 8);
  EXPECT_EQ(reps.data(), graph.data());
}

TEST_F(PlanTest, PrefixRepresentationsRunsPlansBitIdentically) {
  for (const EncoderType encoder : kTraceableFamilies) {
    LightMob model(Config(encoder, 6));
    const data::Sample sample = MakeSample(1, 7);
    const nn::Tensor reps = model.PrefixRepresentations(sample);
    const nn::Tensor graph = GraphReps(model, sample);
    ASSERT_EQ(reps.rows(), graph.rows());
    ASSERT_EQ(reps.cols(), graph.cols());
    EXPECT_EQ(reps.data(), graph.data()) << EncoderTypeName(encoder);
  }
}

/// An in-place weight overwrite keeps cached plans valid AND live (they
/// borrow the storage), while a model whose weights moved is caught by the
/// per-use fingerprint revalidation. Here: mutate a weight in place and
/// confirm the cached plan picks the new values up without a recompile.
TEST_F(PlanTest, CachedPlanTracksInPlaceWeightUpdates) {
  LightMob model(Config(EncoderType::kGru, 7));
  ForwardPlanner planner(model);
  PlanScratch scratch;
  const data::Sample sample = MakeSample(3, 5);
  ASSERT_TRUE(planner.EncodeInto(sample, &scratch));
  EXPECT_EQ(planner.compiles(), 1);

  // In-place update of an encoder weight (what a checkpoint hot-swap into
  // existing tensors does): Tensor handles share storage, so writing
  // through the parameter list mutates the live weights without moving
  // them.
  std::vector<nn::Tensor> params = model.encoder().Parameters();
  ASSERT_FALSE(params.empty());
  for (float& x : params.front().data()) x += 0.125f;

  ASSERT_TRUE(planner.EncodeInto(sample, &scratch));
  EXPECT_EQ(planner.compiles(), 1);  // same storage -> no recompile
  const nn::Tensor graph = GraphReps(model, sample);
  for (int64_t i = 0; i < graph.rows() * graph.cols(); ++i) {
    ASSERT_EQ(scratch.reps.data()[i], graph.data()[static_cast<size_t>(i)]);
  }
}

}  // namespace
}  // namespace adamove::core
