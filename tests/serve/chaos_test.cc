#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <future>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/qfloat.h"
#include "common/rng.h"
#include "core/lightmob.h"
#include "core/online_adapter.h"
#include "serve/load_gen.h"
#include "serve/prediction_service.h"
#include "serve/session_store.h"
#include "shard/compact_store.h"
#include "shard/sharded_service.h"
#include "tests/serve/predict_only.h"

namespace adamove::serve {
namespace {

using common::FaultRegistry;
using common::FaultSpec;

core::ModelConfig SmallConfig() {
  core::ModelConfig c;
  c.num_locations = 12;
  c.num_users = 8;
  c.hidden_size = 8;
  c.location_emb_dim = 4;
  c.time_emb_dim = 4;
  c.user_emb_dim = 2;
  c.lambda = 0.0;
  return c;
}

std::vector<data::Sample> MakeStream(int users, int steps_per_user) {
  std::vector<data::Sample> stream;
  for (int u = 0; u < users; ++u) {
    std::vector<data::Point> window;
    int64_t t = 1333238400 + u * 100;
    for (int s = 0; s < steps_per_user; ++s) {
      const int64_t loc = (u + s) % 12;
      window.push_back({u, loc, t});
      if (static_cast<int>(window.size()) > 6) window.erase(window.begin());
      data::Sample sample;
      sample.user = u;
      sample.recent = window;
      t += 3 * data::kSecondsPerHour;
      sample.target = {u, (u + s + 1) % 12, t};
      stream.push_back(sample);
    }
  }
  return stream;
}

bool AllFinite(const std::vector<float>& scores) {
  for (float s : scores) {
    if (!std::isfinite(s)) return false;
  }
  return true;
}

/// The chaos suite owns the process-global registry: disarm on both sides of
/// every test so a failure in one case cannot leak faults into the next.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultRegistry::Instance().DisarmAll();
    FaultRegistry::Instance().SetSeed(7);
  }
  void TearDown() override { FaultRegistry::Instance().DisarmAll(); }
};

constexpr const char* kAllFaultPoints[] = {
    "core.kb.ingest",      "core.kb.lookup",       "serve.session_lookup",
    "serve.ptta_generate", "serve.encode_forward", "serve.batch_flush",
};

/// Headline acceptance: every fault point armed at 10%, LoadGen at several
/// offered rates. The service must never crash, must deliver finite
/// correctly-sized scores for every non-shed request, and the stats ledger
/// must account for every submission.
TEST_F(ChaosTest, SurvivesAllFaultPointsAtTenPercentUnderLoad) {
  core::LightMob model(SmallConfig());
  const std::vector<data::Sample> stream =
      BuildReplayStream(MakeStream(8, 25), /*min_requests=*/400);

  for (const char* point : kAllFaultPoints) {
    FaultRegistry::Instance().Arm(point, FaultSpec{0.1, 0, true});
  }

  const double rates[] = {0.0, 2000.0, 500.0};  // closed-loop max + 2 paced
  for (const double qps : rates) {
    SessionStore store{SessionStoreConfig{}};
    ServiceConfig config;
    config.workers = 4;
    config.queue_capacity = 64;
    PredictionService service(model, store, config);

    LoadGenConfig lg;
    lg.clients = 4;
    lg.max_requests = 400;
    lg.target_qps = qps;
    const LoadGenResult result = RunLoadGen(service, stream, lg);
    service.Shutdown();

    // Submit blocks at capacity: every submission is eventually delivered.
    EXPECT_EQ(result.completed, 400u) << "qps " << qps;
    EXPECT_EQ(result.shed, 0u);
    // With six points at 10% each, degradations must actually happen —
    // otherwise the chaos run silently tested nothing.
    EXPECT_GT(result.degraded, 0u) << "qps " << qps;

    const ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.completed, 400u);
    EXPECT_EQ(stats.accounted(), 400u);
    EXPECT_EQ(stats.completed,
              stats.ok_requests() + stats.degraded_requests + stats.timeouts);
    EXPECT_EQ(stats.degraded_requests, result.degraded);

    // Availability bar: >= 99% of non-shed requests got valid predictions.
    // Delivery is structurally 100% here; assert the explicit ratio anyway
    // so the acceptance criterion is stated in the test.
    EXPECT_GE(static_cast<double>(result.completed),
              0.99 * static_cast<double>(result.completed + result.shed));
  }

  // Every armed point was actually exercised by the three runs.
  for (const char* point : kAllFaultPoints) {
    EXPECT_GT(FaultRegistry::Instance().StatsFor(point).evaluations, 0u)
        << point;
  }
}

/// "Never returns garbage": under heavy faulting every delivered score
/// vector has the model's output width and only finite entries.
TEST_F(ChaosTest, DegradedScoresAreFiniteAndCorrectlySized) {
  core::LightMob model(SmallConfig());
  SessionStore store{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 2;
  PredictionService service(model, store, config);

  for (const char* point : kAllFaultPoints) {
    FaultRegistry::Instance().Arm(point, FaultSpec{0.5, 0, true});
  }

  const std::vector<data::Sample> stream = MakeStream(4, 20);
  std::vector<std::future<Prediction>> inflight;
  for (const auto& sample : stream) inflight.push_back(service.Submit(sample));
  size_t degraded = 0;
  for (auto& f : inflight) {
    const Prediction p = f.get();
    ASSERT_EQ(p.scores.size(), 12u);
    EXPECT_TRUE(AllFinite(p.scores));
    if (p.outcome != RequestOutcome::kOk) ++degraded;
  }
  service.Shutdown();
  EXPECT_GT(degraded, 0u);
}

/// The degradation ladder's bottom rung is the *real* base model, not a
/// canned response: with the session lookup failing 100% of the time, the
/// service must return exactly OnlineAdapter::PredictFrozenInto for each
/// query.
TEST_F(ChaosTest, FallbackIsBitIdenticalToFrozenBaseModel) {
  core::LightMob model(SmallConfig());
  const std::vector<data::Sample> stream = MakeStream(3, 8);

  std::vector<std::vector<float>> expected;
  for (const auto& sample : stream) {
    const nn::Tensor reps = model.PrefixRepresentations(sample);
    const int64_t last = reps.rows() - 1;
    std::vector<float> query(static_cast<size_t>(reps.cols()));
    for (int64_t j = 0; j < reps.cols(); ++j) {
      query[static_cast<size_t>(j)] = reps.at(last, j);
    }
    std::vector<float> frozen;
    core::OnlineAdapter::PredictFrozenInto(model, query.data(), reps.cols(),
                                           &frozen);
    expected.push_back(std::move(frozen));
  }

  FaultRegistry::Instance().Arm("serve.session_lookup",
                                FaultSpec{1.0, 0, true});
  SessionStore store{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 1;
  PredictionService service(model, store, config);
  for (size_t i = 0; i < stream.size(); ++i) {
    const Prediction p = service.Submit(stream[i]).get();
    EXPECT_EQ(p.outcome, RequestOutcome::kDegraded);
    ASSERT_EQ(p.scores.size(), expected[i].size());
    for (size_t j = 0; j < p.scores.size(); ++j) {
      ASSERT_EQ(p.scores[j], expected[i][j]) << "request " << i;
    }
  }
  service.Shutdown();
  // The faulted lookups never wrote per-user state.
  EXPECT_EQ(store.UserCount(), 0u);
  EXPECT_EQ(service.Stats().degraded_requests, stream.size());
}

/// Recovery contract: once faults clear, a fresh store served through the
/// (previously chaos-stressed) service is bit-identical to the plain
/// OnlineAdapter reference — the fault layer leaves zero arithmetic residue.
TEST_F(ChaosTest, ConvergesToBitIdenticalAfterFaultsClear) {
  core::LightMob model(SmallConfig());
  const std::vector<data::Sample> stream = MakeStream(4, 10);

  // Phase 1: chaos. Outputs are allowed to differ; the service must survive.
  for (const char* point : kAllFaultPoints) {
    FaultRegistry::Instance().Arm(point, FaultSpec{0.3, 0, true});
  }
  {
    SessionStore store{SessionStoreConfig{}};
    ServiceConfig config;
    config.workers = 2;
    PredictionService service(model, store, config);
    for (const auto& sample : stream) {
      const Prediction p = service.Submit(sample).get();
      ASSERT_EQ(p.scores.size(), 12u);
    }
    service.Shutdown();
  }

  // Phase 2: faults cleared -> the serving path must match the reference
  // adapter bit-for-bit on fresh state.
  FaultRegistry::Instance().DisarmAll();
  core::OnlineAdapter reference{core::PttaConfig{}};
  std::vector<std::vector<float>> expected;
  for (const auto& sample : stream) {
    expected.push_back(reference.ObserveAndPredict(model, sample));
  }
  SessionStore store{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 1;
  PredictionService service(model, store, config);
  for (size_t i = 0; i < stream.size(); ++i) {
    const Prediction p = service.Submit(stream[i]).get();
    EXPECT_EQ(p.outcome, RequestOutcome::kOk);
    ASSERT_EQ(p.scores.size(), expected[i].size());
    for (size_t j = 0; j < p.scores.size(); ++j) {
      ASSERT_EQ(p.scores[j], expected[i][j])
          << "request " << i << " score " << j;
    }
  }
  service.Shutdown();
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.ok_requests(), stream.size());
  EXPECT_EQ(stats.degraded_requests, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
}

/// Deadline semantics: a delay-only encoder fault pushes every request past
/// a 1 ms deadline, so all of them are served the frozen fallback as
/// kTimedOut — still with valid scores, still fully accounted.
TEST_F(ChaosTest, DeadlineOverrunsServeFallbackAsTimedOut) {
  core::LightMob model(SmallConfig());
  SessionStore store{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 1;
  config.deadline_us = 1000;
  PredictionService service(model, store, config);

  // prob 1, 5 ms delay, noerror: slows the encode stage without tripping the
  // retry/degrade path, so the only degradation cause is the deadline.
  FaultRegistry::Instance().Arm("serve.encode_forward",
                                FaultSpec{1.0, 5000, /*error=*/false});

  const std::vector<data::Sample> stream = MakeStream(2, 5);
  for (const auto& sample : stream) {
    const Prediction p = service.Submit(sample).get();
    EXPECT_EQ(p.outcome, RequestOutcome::kTimedOut);
    ASSERT_EQ(p.scores.size(), 12u);
    EXPECT_TRUE(AllFinite(p.scores));
  }
  service.Shutdown();
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.timeouts, stream.size());
  EXPECT_EQ(stats.completed, stream.size());
  // Timed-out requests skipped adaptation entirely: no state was written.
  EXPECT_EQ(store.UserCount(), 0u);
}

/// `core.state_hydrate` at 100%: rehydration from the cold tier is blocked,
/// so cold users get the frozen base model (bit-identical to
/// PredictFrozenInto) and — the invariant that keeps the fault recoverable
/// — NEITHER tier is mutated: no fresh hot state that would fork the cold
/// blob, no cold Take that would lose it. Once the fault clears, the
/// original adapted state hydrates and serves.
///
/// Note this point (and serve.router_lookup below) is deliberately NOT in
/// kAllFaultPoints: it only evaluates when a cold tier is configured, which
/// the plain-SessionStore chaos runs above never do.
TEST_F(ChaosTest, StateHydrateFaultServesFrozenAndMutatesNeitherTier) {
  core::LightMob model(SmallConfig());
  common::Rng rng(11);
  shard::CompactStore cold;
  SessionStoreConfig store_config;
  store_config.num_shards = 2;
  store_config.max_resident_users = 2;
  store_config.cold_tier = &cold;
  SessionStore store(store_config);

  // Populate 6 users; the 2-user cap pushes most of them cold.
  int64_t t = 1333238400;
  for (int64_t user = 0; user < 6; ++user) {
    for (int i = 0; i < 6; ++i) {
      std::vector<float> pattern(8);
      for (float& x : pattern) {
        x = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
      }
      store.Observe(user, pattern, (user + i) % 12, t);
      t += 600;
    }
  }
  ASSERT_GT(cold.GetStats().users, 0u);
  const auto cold_before = cold.GetStats();
  const std::vector<int64_t> hot_before = store.ResidentUsers();
  // A user that is currently cold (guaranteed: 6 users, at most 4 hot).
  int64_t cold_user = -1;
  for (int64_t user = 0; user < 6; ++user) {
    if (!std::count(hot_before.begin(), hot_before.end(), user)) {
      cold_user = user;
      break;
    }
  }
  ASSERT_GE(cold_user, 0);

  FaultRegistry::Instance().Arm("core.state_hydrate", FaultSpec{1.0, 0, true});

  std::vector<float> query(8);
  for (float& x : query) x = static_cast<float>(rng.Uniform() * 2.0 - 1.0);
  std::vector<float> frozen;
  core::OnlineAdapter::PredictFrozenInto(model, query.data(),
                                         static_cast<int64_t>(query.size()),
                                         &frozen);
  const std::vector<float> got = PredictOnly(store, model, cold_user, query, t);
  ASSERT_EQ(got.size(), frozen.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], frozen[i]) << "score " << i;
  }
  // Blocked Observe drops the observation rather than forking fresh state.
  store.Observe(cold_user, query, 0, t);

  // Neither tier moved: the blob is still cold and byte-for-byte intact,
  // and the hot tier holds exactly the users it held before.
  EXPECT_EQ(cold.GetStats().users, cold_before.users);
  EXPECT_EQ(cold.GetStats().blob_bytes, cold_before.blob_bytes);
  EXPECT_EQ(cold.GetStats().takes, cold_before.takes);
  EXPECT_EQ(store.ResidentUsers(), hot_before);

  // The serving path accounts it as a degradation, scores still valid.
  ServiceConfig service_config;
  service_config.workers = 1;
  PredictionService service(model, store, service_config);
  const std::vector<data::Sample> stream = MakeStream(6, 2);
  size_t degraded = 0;
  for (const auto& sample : stream) {
    const Prediction p = service.Submit(sample).get();
    ASSERT_EQ(p.scores.size(), 12u);
    EXPECT_TRUE(AllFinite(p.scores));
    if (p.outcome == RequestOutcome::kDegraded) ++degraded;
  }
  service.Shutdown();
  EXPECT_GT(degraded, 0u);
  EXPECT_EQ(service.Stats().accounted(), stream.size());
  EXPECT_GT(FaultRegistry::Instance().StatsFor("core.state_hydrate").fired,
            0u);

  // Recovery: fault cleared, the cold user hydrates with its state intact.
  FaultRegistry::Instance().DisarmAll();
  const uint64_t takes_before = cold.GetStats().takes;
  (void)PredictOnly(store, model, cold_user, query, t);
  EXPECT_GT(cold.GetStats().takes, takes_before);
  EXPECT_GT(store.PatternCount(cold_user), 0u);
}

/// `serve.router_lookup` at 100%: placement fails for every request, so the
/// sharded layer admits each one to a live fallback group frozen-only. The
/// ladder holds: never a crash, every request kDegraded with valid frozen
/// scores, exact accounting, and zero per-user state created on groups the
/// ring never chose.
TEST_F(ChaosTest, RouterLookupFaultFallsBackFrozenWithExactAccounting) {
  core::LightMob model(SmallConfig());
  shard::ShardedServiceConfig config;
  config.num_shards = 2;
  config.service.workers = 2;
  shard::ShardedService sharded(model, config);

  FaultRegistry::Instance().Arm("serve.router_lookup",
                                FaultSpec{1.0, 0, true});
  const std::vector<data::Sample> stream = MakeStream(6, 4);
  std::vector<std::future<Prediction>> futures;
  for (const auto& sample : stream) futures.push_back(sharded.Submit(sample));
  for (auto& f : futures) {
    const Prediction p = f.get();
    EXPECT_EQ(p.outcome, RequestOutcome::kDegraded);
    ASSERT_EQ(p.scores.size(), 12u);
    EXPECT_TRUE(AllFinite(p.scores));
  }
  EXPECT_EQ(sharded.RouterFallbacks(), stream.size());
  uint64_t accounted = 0;
  uint64_t degraded = 0;
  size_t users = 0;
  for (const auto& group : sharded.Stats()) {
    accounted += group.service.accounted();
    degraded += group.service.degraded_requests;
    users += group.hot_users + group.cold_users;
  }
  EXPECT_EQ(accounted, stream.size());
  EXPECT_EQ(degraded, stream.size());
  EXPECT_EQ(users, 0u);  // frozen-only admission writes no state, ever
  sharded.Shutdown();

  // Partial outage: at 30% the service mixes adapted and fallback service,
  // survives, and the ledger still balances exactly.
  FaultRegistry::Instance().DisarmAll();
  FaultRegistry::Instance().SetSeed(7);
  FaultRegistry::Instance().Arm("serve.router_lookup",
                                FaultSpec{0.3, 0, true});
  shard::ShardedService partial(model, config);
  std::vector<std::future<Prediction>> mixed;
  for (const auto& sample : stream) mixed.push_back(partial.Submit(sample));
  for (auto& f : mixed) {
    const Prediction p = f.get();
    ASSERT_EQ(p.scores.size(), 12u);
    EXPECT_TRUE(AllFinite(p.scores));
  }
  uint64_t partial_accounted = 0;
  uint64_t partial_degraded = 0;
  for (const auto& group : partial.Stats()) {
    partial_accounted += group.service.accounted();
    partial_degraded += group.service.degraded_requests;
  }
  EXPECT_EQ(partial_accounted, stream.size());
  EXPECT_GT(partial.RouterFallbacks(), 0u);
  EXPECT_LT(partial.RouterFallbacks(), stream.size());
  // With no other fault armed, router fallbacks are the only degradations.
  EXPECT_EQ(partial_degraded, partial.RouterFallbacks());
  partial.Shutdown();
}

/// Endurance: 10k requests through the default service, which encodes on
/// the raw path. Exact outcome accounting must hold — every submission
/// completes and nothing degrades — and (under the sanitizer stages) the
/// per-worker encode scratch neither leaks nor races.
TEST_F(ChaosTest, PlanServiceEnduresTenThousandRequestsWithExactAccounting) {
  core::LightMob model(SmallConfig());
  const std::vector<data::Sample> stream =
      BuildReplayStream(MakeStream(8, 25), /*min_requests=*/10000);

  SessionStore store{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 4;
  config.queue_capacity = 64;
  PredictionService service(model, store, config);
  ASSERT_EQ(service.forward_mode(), core::ForwardMode::kPlan);

  LoadGenConfig lg;
  lg.clients = 4;
  lg.max_requests = 10000;
  lg.target_qps = 0.0;  // closed loop, as fast as the service drains
  const LoadGenResult result = RunLoadGen(service, stream, lg);
  service.Shutdown();

  EXPECT_EQ(result.completed, 10000u);
  EXPECT_EQ(result.shed, 0u);
  EXPECT_EQ(result.degraded, 0u);

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, 10000u);
  EXPECT_EQ(stats.accounted(), 10000u);
  EXPECT_EQ(stats.ok_requests() + stats.timeouts, 10000u);
  EXPECT_EQ(stats.degraded_requests, 0u);
}

}  // namespace
}  // namespace adamove::serve
