// The raw inference path (DESIGN.md §14): ForwardPlanner's encode must be
// BIT-IDENTICAL to the autograd graph walk it replaces — same op order,
// same kernels, same roundings — across every encoder family with a raw
// path, hidden sizes 1..17 (every vector-width remainder class), both
// kernel backends, and 1 vs 8 kernel threads. A continuation resumed from
// a prefix's carry must equal the stateless encode at every split point.
// Also here: in-place weight updates, invalidation, prefix-state validity
// and bounds, and the Transformer, which is routed to the graph walk.

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
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
  ASSERT_TRUE(planner.has_raw_path());
  PlanScratch scratch;
  ASSERT_TRUE(planner.EncodeInto(MakeSample(0, 4), &scratch));
  ASSERT_TRUE(planner.EncodeInto(MakeSample(1, 4), &scratch));
  ASSERT_TRUE(planner.EncodeInto(MakeSample(1, 6), &scratch));
  planner.InvalidateAll();
  ASSERT_TRUE(planner.EncodeInto(MakeSample(0, 4), &scratch));
  ExpectPlanMatchesGraphExactly(model, MakeSample(0, 4), "post-invalidate");
}

TEST_F(PlanTest, UntraceableFamilyFallsBackToGraphGracefully) {
  LightMob model(Config(EncoderType::kTransformer, 8));
  ForwardPlanner planner(model);
  // There is an encoder to look at, but its sequence layer has no raw path:
  // the planner knows at construction, so no request ever attempts one.
  EXPECT_FALSE(planner.has_raw_path());
  PlanScratch scratch;
  EXPECT_FALSE(planner.EncodeInto(MakeSample(0, 4), &scratch));
  EXPECT_FALSE(planner.EncodeInto(MakeSample(0, 4), &scratch));
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

/// The raw path reads the weights live, so an in-place weight overwrite is
/// used by the next encode with no invalidation.
TEST_F(PlanTest, CachedPlanTracksInPlaceWeightUpdates) {
  LightMob model(Config(EncoderType::kGru, 7));
  ForwardPlanner planner(model);
  PlanScratch scratch;
  const data::Sample sample = MakeSample(3, 5);
  ASSERT_TRUE(planner.EncodeInto(sample, &scratch));

  // In-place update of an encoder weight (what a checkpoint hot-swap into
  // existing tensors does): Tensor handles share storage, so writing
  // through the parameter list mutates the live weights without moving
  // them.
  std::vector<nn::Tensor> params = model.encoder().Parameters();
  ASSERT_FALSE(params.empty());
  for (float& x : params.front().data()) x += 0.125f;

  ASSERT_TRUE(planner.EncodeInto(sample, &scratch));
  const nn::Tensor graph = GraphReps(model, sample);
  for (int64_t i = 0; i < graph.rows() * graph.cols(); ++i) {
    ASSERT_EQ(scratch.reps.data()[i], graph.data()[static_cast<size_t>(i)]);
  }
}

data::Sample Prefix(const data::Sample& sample, int len) {
  data::Sample prefix = sample;
  prefix.recent.resize(static_cast<size_t>(len));
  return prefix;
}

// Bit patterns, not float ==, so a -0 / +0 swap fails too.
void ExpectSameFloats(const float* got, const float* want, size_t n,
                      const std::string& context) {
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(got[i]),
              std::bit_cast<uint32_t>(want[i]))
        << context << " element " << i << ": " << got[i] << " vs " << want[i];
  }
}

// Continuation == stateless encode == graph walk. For a window of T points
// and every split point P in 1..T: encode the first P points (a miss, from
// the zero carry), then the whole window resumes from that state — P rows
// copied, T-P steps run from the P-point carry (none when P == T). The
// rows must equal the graph walk's, and the carry the state left must
// equal the stateless full run's carry.
void ExpectEverySplitMatches(LightMob& model, ForwardPlanner& planner,
                             const data::Sample& sample,
                             const std::string& context) {
  const int t = static_cast<int>(sample.recent.size());
  const nn::Tensor graph = GraphReps(model, sample);
  PlanScratch full;
  ASSERT_TRUE(planner.EncodeInto(sample, &full)) << context;
  ExpectSameFloats(full.reps.data(), graph.data().data(),
                   graph.data().size(), context + " stateless");
  for (int p = 1; p <= t; ++p) {
    const std::string where = context + " split " + std::to_string(p);
    PrefixState state;
    PlanScratch scratch;
    ASSERT_TRUE(planner.ExtendInto(Prefix(sample, p), &state, &scratch))
        << where;
    EXPECT_EQ(scratch.reused, 0) << where;
    ASSERT_TRUE(planner.ExtendInto(sample, &state, &scratch)) << where;
    EXPECT_EQ(scratch.reused, p) << where;
    ASSERT_EQ(scratch.rows, graph.rows()) << where;
    ExpectSameFloats(scratch.reps.data(), graph.data().data(),
                     graph.data().size(), where);
    ASSERT_EQ(state.carry.size(), full.carry.size()) << where;
    ExpectSameFloats(state.carry.data(), full.carry.data(),
                     full.carry.size(), where + " carry");
    ASSERT_EQ(state.points.size(), sample.recent.size()) << where;
    ExpectSameFloats(state.rows.data(), graph.data().data(),
                     graph.data().size(), where + " stored rows");
  }
}

TEST_F(PlanTest, ContinuationMatchesStatelessPlanAtEverySplitPoint) {
  std::vector<k::Backend> backends = {k::Backend::kScalar};
  if (SimdAvailable()) backends.push_back(k::Backend::kSimd);
  for (const k::Backend backend : backends) {
    k::SetBackendForTest(backend);
    for (const EncoderType encoder : kTraceableFamilies) {
      for (int64_t layers = 1; layers <= 3; ++layers) {
        LightMob model(Config(encoder, 5, layers));
        ForwardPlanner planner(model);
        const std::string context =
            EncoderTypeName(encoder) + " layers " + std::to_string(layers) +
            " backend " + k::BackendName(backend);
        for (int t = 1; t <= 17; ++t) {
          ExpectEverySplitMatches(model, planner, MakeSample(1, t),
                                  context + " T " + std::to_string(t));
        }
        ExpectEverySplitMatches(model, planner, MakeSample(2, 64),
                                context + " T 64");
      }
    }
  }
}

TEST_F(PlanTest, FullRunCarryOutIsTheLastHiddenState) {
  for (const EncoderType encoder : kTraceableFamilies) {
    LightMob model(Config(encoder, 7));
    ForwardPlanner planner(model);
    PlanScratch scratch;
    ASSERT_TRUE(planner.EncodeInto(MakeSample(3, 6), &scratch));
    // Layout: h first (then c for an LSTM).
    const size_t hidden = 7;
    ASSERT_EQ(scratch.carry.size(),
              encoder == EncoderType::kLstm ? 2 * hidden : hidden);
    ExpectSameFloats(scratch.carry.data(),
                     scratch.reps.data() + 5 * hidden, hidden,
                     EncoderTypeName(encoder));
  }
}

/// A prefix state serves only the generation and backend that computed it:
/// InvalidateAll, a weight reallocation and a backend switch all turn the
/// next extension into a full encode, and a window that does not extend the
/// state point for point is one too.
TEST_F(PlanTest, PrefixStateServesOnlyItsGenerationBackendAndPrefix) {
  LightMob model(Config(EncoderType::kLstm, 6));
  ForwardPlanner planner(model);
  const data::Sample sample = MakeSample(1, 9);
  PrefixState state;
  PlanScratch scratch;
  auto extend = [&](int len) {
    EXPECT_TRUE(planner.ExtendInto(Prefix(sample, len), &state, &scratch));
    return scratch.reused;
  };
  EXPECT_EQ(extend(3), 0);
  EXPECT_EQ(extend(4), 3);
  EXPECT_EQ(extend(4), 4);  // exact repeat: no step runs

  planner.InvalidateAll();
  EXPECT_EQ(extend(5), 0);

  if (SimdAvailable()) {
    k::SetBackendForTest(k::Backend::kSimd);
    EXPECT_EQ(extend(6), 0);
    EXPECT_EQ(extend(7), 6);
    k::SetBackendForTest(k::Backend::kScalar);
    EXPECT_EQ(extend(8), 0);
  }

  // Not a prefix: one point of the stored window differs.
  data::Sample moved = Prefix(sample, 9);
  moved.recent[1].timestamp += 1;
  ASSERT_TRUE(planner.ExtendInto(moved, &state, &scratch));
  EXPECT_EQ(scratch.reused, 0);
  // Shorter than the stored window: a miss, and the state shrinks to it.
  EXPECT_EQ(extend(2), 0);
  EXPECT_EQ(state.points.size(), 2u);

  // A weight reallocation (hot-swap into fresh storage) bumps the
  // generation through the storage check, without InvalidateAll.
  const uint64_t before = planner.generation();
  std::vector<nn::Tensor> params = model.encoder().Parameters();
  std::vector<float> fresh = params.front().data();
  params.front().data() = std::move(fresh);  // same values, new storage
  EXPECT_NE(planner.generation(), before);
  EXPECT_EQ(extend(3), 0);
  const nn::Tensor graph = GraphReps(model, Prefix(sample, 3));
  ExpectSameFloats(scratch.reps.data(), graph.data().data(),
                   graph.data().size(), "after reallocation");
}

TEST_F(PlanTest, PrefixCacheHoldsAtMostItsBoundAndDropsOnClear) {
  LightMob model(Config(EncoderType::kGru, 5));
  ForwardPlanner planner(model);
  PlanScratch scratch;
  PrefixCache bounded(4);
  PrefixCache unbounded(0);
  for (int round = 0; round < 3; ++round) {
    for (int64_t key = 0; key < 20; ++key) {
      const data::Sample sample = MakeSample(key % 4, 3 + round);
      ASSERT_TRUE(bounded.Encode(planner, key, sample, &scratch));
      ASSERT_TRUE(unbounded.Encode(planner, key, sample, &scratch));
      EXPECT_EQ(scratch.reused, round == 0 ? 0 : 2 + round);
      EXPECT_LE(bounded.entries(), 4u);
    }
  }
  EXPECT_EQ(unbounded.entries(), 20u);
  EXPECT_GT(unbounded.bytes(), 20 * 5 * 5 * sizeof(float));
  unbounded.Clear();
  EXPECT_EQ(unbounded.entries(), 0u);
  EXPECT_EQ(unbounded.bytes(), 0u);
  // The planner's generation moving drops a shard's entries on its next
  // encode, so the miss re-encodes the whole window.
  ASSERT_TRUE(bounded.Encode(planner, 0, MakeSample(0, 5), &scratch));
  planner.InvalidateAll();
  ASSERT_TRUE(bounded.Encode(planner, 0, MakeSample(0, 6), &scratch));
  EXPECT_EQ(scratch.reused, 0);
}

}  // namespace
}  // namespace adamove::core
