// Plan-IR static verifier (DESIGN.md §15). Two halves:
//
//  1. Soundness on real plans: every plan the tracer compiles across the
//     same family × hidden-dim matrix the bit-identity suite exercises
//     (RNN/LSTM/GRU × hidden 1..17, stacked variants, every sequence
//     length) must verify clean — the verifier may not reject the
//     compiler's actual output.
//  2. The mutation suite: programmatically corrupt compiled plans — one
//     mutation per invariant class — and assert each is rejected with a
//     diagnostic precise enough to name the offending check and op/value.
//     These corruptions are exactly the silent-memory-corruption bugs the
//     executor cannot catch at run time.
//
// Also here: the ForwardPlanner integration counters (one verification per
// compile, none per steady-state request by default, one per revalidation
// under the kParanoid test hook).

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/forward_plan.h"
#include "core/lightmob.h"
#include "data/dataset.h"
#include "nn/plan/encoder_trace.h"
#include "nn/plan/plan.h"
#include "nn/plan/verifier.h"

namespace adamove::nn::plan {
namespace {

core::ModelConfig Config(core::EncoderType encoder, int64_t hidden,
                         int64_t layers = 1) {
  core::ModelConfig c;
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

std::vector<const Embedding*> Tables(const core::LightMob& model) {
  const core::PointEmbedding& e = model.trajectory_encoder()->embedding();
  return {&e.location_embedding(), &e.time_embedding(),
          &e.user_embedding()};
}

std::shared_ptr<const CompiledPlan> Compile(const core::LightMob& model,
                                            int64_t seq_len) {
  return CompileEncoderForward(Tables(model),
                               model.trajectory_encoder()->seq(), seq_len);
}

constexpr core::EncoderType kFamilies[] = {
    core::EncoderType::kRnn, core::EncoderType::kLstm,
    core::EncoderType::kGru};

// --- half 1: the tracer's real output always verifies --------------------

TEST(PlanVerifierTest, EveryMatrixPlanVerifiesClean) {
  for (const core::EncoderType encoder : kFamilies) {
    for (int64_t hidden = 1; hidden <= 17; ++hidden) {
      core::LightMob model(Config(encoder, hidden));
      for (const int64_t seq_len : {1, 5}) {
        auto plan = Compile(model, seq_len);
        ASSERT_NE(plan, nullptr);
        const VerifyResult result = VerifyPlan(*plan);
        EXPECT_TRUE(result.ok)
            << core::EncoderTypeName(encoder) << " hidden " << hidden
            << " seq " << seq_len << ": " << result.message;
      }
    }
  }
}

TEST(PlanVerifierTest, StackedEncoderPlansVerifyClean) {
  for (const core::EncoderType encoder : kFamilies) {
    core::LightMob model(Config(encoder, 9, /*layers=*/2));
    for (int64_t seq_len = 1; seq_len <= 8; ++seq_len) {
      auto plan = Compile(model, seq_len);
      ASSERT_NE(plan, nullptr);
      const VerifyResult result = VerifyPlan(*plan);
      EXPECT_TRUE(result.ok) << core::EncoderTypeName(encoder) << " seq "
                             << seq_len << ": " << result.message;
    }
  }
}

// --- half 2: the mutation suite ------------------------------------------

/// A mutable copy of a known-good LSTM plan (seq 5, hidden 8 — long enough
/// that the arena has real slot reuse to corrupt) plus lookup helpers.
class PlanMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    model_ = std::make_unique<core::LightMob>(
        Config(core::EncoderType::kLstm, 8));
    auto compiled = Compile(*model_, 5);
    ASSERT_NE(compiled, nullptr);
    plan_ = *compiled;
    ASSERT_TRUE(VerifyPlan(plan_).ok);
  }

  /// Asserts the mutated plan is rejected by check `check`, with the
  /// diagnostic naming `subject` (an "op N" / "value N" reference).
  void ExpectRejected(const std::string& check, const std::string& subject) {
    const VerifyResult result = VerifyPlan(plan_);
    ASSERT_FALSE(result.ok)
        << "mutation survived verification (" << check << ")";
    EXPECT_NE(result.message.find("plan-verify[" + check + "]"),
              std::string::npos)
        << "wrong check fired: " << result.message;
    EXPECT_NE(result.message.find(subject), std::string::npos)
        << "diagnostic does not name " << subject << ": " << result.message;
  }

  ValueId FirstTemp() const {
    for (size_t i = 0; i < plan_.values.size(); ++i) {
      if (plan_.values[i].kind == ValueKind::kTemp) {
        return static_cast<ValueId>(i);
      }
    }
    return kNoValue;
  }

  ValueId FirstWeight() const {
    for (size_t i = 0; i < plan_.values.size(); ++i) {
      if (plan_.values[i].kind == ValueKind::kWeight) {
        return static_cast<ValueId>(i);
      }
    }
    return kNoValue;
  }

  /// Two temps with intersecting live intervals, currently-disjoint arena
  /// ranges, that never appear in the same op (so the corruption is only
  /// catchable by the arena-overlap proof, not the per-op alias check) and
  /// whose overlap keeps the second temp in bounds.
  std::pair<ValueId, ValueId> OverlappableTempPair() const {
    const auto co_occur = [&](ValueId x, ValueId y) {
      for (const Op& op : plan_.ops) {
        const bool has_x = op.a == x || op.b == x || op.dst == x;
        const bool has_y = op.a == y || op.b == y || op.dst == y;
        if (has_x && has_y) return true;
      }
      return false;
    };
    for (size_t i = 0; i < plan_.values.size(); ++i) {
      const Value& a = plan_.values[i];
      if (a.kind != ValueKind::kTemp) continue;
      for (size_t j = 0; j < plan_.values.size(); ++j) {
        if (i == j) continue;
        const Value& b = plan_.values[j];
        if (b.kind != ValueKind::kTemp) continue;
        const bool lifetimes_cross =
            a.first_def <= b.last_use && b.first_def <= a.last_use;
        const bool bytes_disjoint =
            a.arena_offset + a.elems <= b.arena_offset ||
            b.arena_offset + b.elems <= a.arena_offset;
        const bool refit_in_bounds =
            a.arena_offset + b.elems <= plan_.arena_elems;
        if (lifetimes_cross && bytes_disjoint && refit_in_bounds &&
            !co_occur(static_cast<ValueId>(i), static_cast<ValueId>(j))) {
          return {static_cast<ValueId>(i), static_cast<ValueId>(j)};
        }
      }
    }
    return {kNoValue, kNoValue};
  }

  std::unique_ptr<core::LightMob> model_;
  CompiledPlan plan_;
};

TEST_F(PlanMutationTest, OverlappingLiveIntervalsSharingBytesRejected) {
  auto [keep, move] = OverlappableTempPair();
  ASSERT_NE(keep, kNoValue);
  plan_.values[static_cast<size_t>(move)].arena_offset =
      plan_.values[static_cast<size_t>(keep)].arena_offset;
  ExpectRejected("arena-overlap", "value " + std::to_string(keep));
}

TEST_F(PlanMutationTest, OutOfBoundsArenaOffsetRejected) {
  const ValueId temp = FirstTemp();
  ASSERT_NE(temp, kNoValue);
  // Aligned and past the end, so the bounds check (not alignment) is what
  // must catch it.
  plan_.values[static_cast<size_t>(temp)].arena_offset =
      (plan_.arena_elems + 15) / 16 * 16;
  ExpectRejected("arena-bounds", "value " + std::to_string(temp));
}

TEST_F(PlanMutationTest, MisalignedArenaOffsetRejected) {
  const ValueId temp = FirstTemp();
  ASSERT_NE(temp, kNoValue);
  plan_.values[static_cast<size_t>(temp)].arena_offset += 1;
  ExpectRejected("arena-align", "value " + std::to_string(temp));
}

TEST_F(PlanMutationTest, UseBeforeDefRejected) {
  // Swap the first op (a gather defining part of the encoder input) with
  // the first MatMul that consumes that input: the read now precedes the
  // definition.
  size_t matmul = 0;
  while (matmul < plan_.ops.size() &&
         plan_.ops[matmul].kind != OpKind::kMatMul) {
    ++matmul;
  }
  ASSERT_LT(matmul, plan_.ops.size());
  std::swap(plan_.ops[0], plan_.ops[matmul]);
  ExpectRejected("use-before-def", "op 0");
}

TEST_F(PlanMutationTest, CyclicOpOrderRejected) {
  // Rotate the final op (which consumes nearly the whole dataflow) to the
  // front — the moral equivalent of a dependency cycle in a linear
  // schedule: an op scheduled before its inputs exist.
  std::rotate(plan_.ops.begin(), plan_.ops.end() - 1, plan_.ops.end());
  ExpectRejected("use-before-def", "op 0");
}

TEST_F(PlanMutationTest, WrongElemsRejected) {
  // Shrink the gather destination (the concatenated embedding buffer): the
  // traced ops now write past the value's recorded size.
  const ValueId dst = plan_.ops[0].dst;
  ASSERT_NE(dst, kNoValue);
  plan_.values[static_cast<size_t>(dst)].elems -= 1;
  ExpectRejected("bounds", "value " + std::to_string(dst));
}

TEST_F(PlanMutationTest, NullWeightRejected) {
  const ValueId w = FirstWeight();
  ASSERT_NE(w, kNoValue);
  plan_.values[static_cast<size_t>(w)].weight_data = nullptr;
  ExpectRejected("weight", "value " + std::to_string(w));
}

TEST_F(PlanMutationTest, FingerprintNotCoveringWeightsRejected) {
  ASSERT_FALSE(plan_.weight_fingerprint.empty());
  plan_.weight_fingerprint.pop_back();
  ExpectRejected("fingerprint", "weight");
}

TEST_F(PlanMutationTest, InputAliasingFreshOutputRejected) {
  // Turn a unary activation into an in-place op: reading the bytes the op
  // is defining.
  size_t unary = 0;
  while (unary < plan_.ops.size() &&
         plan_.ops[unary].kind != OpKind::kSigmoid &&
         plan_.ops[unary].kind != OpKind::kTanh) {
    ++unary;
  }
  ASSERT_LT(unary, plan_.ops.size());
  Op& op = plan_.ops[unary];
  op.a = op.dst;
  op.a_off = op.dst_off;
  ExpectRejected("alias", "op " + std::to_string(unary));
}

TEST_F(PlanMutationTest, DoubleDefinitionRejected) {
  // Re-running the last op redefines the output elements it wrote.
  plan_.ops.push_back(plan_.ops.back());
  ExpectRejected("single-def",
                 "op " + std::to_string(plan_.ops.size() - 1));
}

TEST_F(PlanMutationTest, DishonestLiveIntervalRejected) {
  // Shrinking a temp's recorded interval is exactly the lie that lets the
  // packer alias two live buffers.
  ValueId victim = kNoValue;
  for (size_t i = 0; i < plan_.values.size(); ++i) {
    const Value& v = plan_.values[i];
    if (v.kind == ValueKind::kTemp && v.last_use > v.first_def) {
      victim = static_cast<ValueId>(i);
      break;
    }
  }
  ASSERT_NE(victim, kNoValue);
  plan_.values[static_cast<size_t>(victim)].last_use =
      plan_.values[static_cast<size_t>(victim)].first_def;
  ExpectRejected("interval", "value " + std::to_string(victim));
}

TEST_F(PlanMutationTest, EmptyPlanRejected) {
  plan_.ops.clear();
  ExpectRejected("structure", "empty");
}

// --- planner integration ------------------------------------------------

data::Sample VerifierSample(int len) {
  data::Sample sample;
  sample.user = 1;
  int64_t t = 1333238400;
  for (int i = 0; i < len; ++i) {
    sample.recent.push_back({1, (1 + i) % 10, t});
    t += 5 * data::kSecondsPerHour;
  }
  sample.target = {1, (1 + len) % 10, t};
  return sample;
}

TEST(PlannerVerifyIntegrationTest, CompileModeVerifiesOncePerCompile) {
  core::LightMob model(Config(core::EncoderType::kLstm, 8));
  core::ForwardPlanner planner(model);  // default: verify once per compile
  core::PlanScratch scratch;
  const data::Sample sample = VerifierSample(5);
  ASSERT_TRUE(planner.EncodeInto(sample, &scratch));
  EXPECT_EQ(planner.compiles(), 1);
  EXPECT_EQ(planner.verifies(), 1);
  EXPECT_EQ(planner.verify_rejects(), 0);
  // Steady state: cached plan, no re-verification — the zero-per-request
  // half of the bench gate.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(planner.EncodeInto(sample, &scratch));
  }
  EXPECT_EQ(planner.compiles(), 1);
  EXPECT_EQ(planner.verifies(), 1);
}

TEST(PlannerVerifyIntegrationTest, ParanoidModeReverifiesEveryRevalidation) {
  core::LightMob model(Config(core::EncoderType::kGru, 6));
  core::ForwardPlanner planner(model);
  planner.SetVerifyModeForTest(VerifyMode::kParanoid);
  core::PlanScratch scratch;
  const data::Sample sample = VerifierSample(4);
  ASSERT_TRUE(planner.EncodeInto(sample, &scratch));
  EXPECT_EQ(planner.verifies(), 1);  // the compile-time pass
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(planner.EncodeInto(sample, &scratch));
  }
  EXPECT_EQ(planner.verifies(), 4);  // + one per cached-plan revalidation
  EXPECT_EQ(planner.verify_rejects(), 0);
}

}  // namespace
}  // namespace adamove::nn::plan
