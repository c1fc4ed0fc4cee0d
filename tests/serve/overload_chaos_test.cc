#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "core/lightmob.h"
#include "core/online_adapter.h"
#include "serve/adapt_scheduler.h"
#include "serve/load_gen.h"
#include "serve/prediction_service.h"
#include "serve/session_store.h"

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

/// One user's complete stored state as comparable bytes (pending included —
/// EncodeUser appends the dirty section), via the extraction primitive.
std::string StoreUserBytes(SessionStore& store, int64_t user) {
  core::OnlineAdapter::UserSnapshot snap;
  if (!store.ExtractUser(user, &snap)) return {};
  std::string bytes;
  core::OnlineAdapter::EncodeUser(snap, &bytes);
  return bytes;
}

/// Owns the process-global fault registry: cleared on both sides of every
/// test so a failure in one case cannot leak chaos into the next.
class OverloadChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultRegistry::Instance().DisarmAll();
    FaultRegistry::Instance().SetSeed(7);
  }
  void TearDown() override { FaultRegistry::Instance().DisarmAll(); }
};

/// The pressure signal itself, against the fixed band (kEwmaAlpha 0.3,
/// kHighWatermark 0.75, kLowWatermark 0.35): it trips only on sustained
/// overload, holds through the hysteresis band, recovers only at the low
/// watermark, and counts each crossing exactly once. Both saturation arms
/// (queue depth and oldest wait) are exercised.
TEST_F(OverloadChaosTest, PressureGaugeTripsWithHysteresisAndCountsSwitches) {
  PressureGauge gauge;
  EXPECT_FALSE(gauge.deferred());
  // A saturated queue (instant 1.0): ewma = 0.3 * 1.0 + 0.7 * ewma.
  gauge.Update(100, 100, 0.0, 1000.0);  // 0.3
  gauge.Update(100, 100, 0.0, 1000.0);  // 0.51
  gauge.Update(100, 100, 0.0, 1000.0);  // 0.657: still under 0.75
  EXPECT_FALSE(gauge.deferred());
  EXPECT_EQ(gauge.mode_switches(), 0u);
  gauge.Update(100, 100, 0.0, 1000.0);  // 0.7599: trips
  EXPECT_TRUE(gauge.deferred());
  EXPECT_EQ(gauge.mode_switches(), 1u);
  // An empty queue (instant 0.0): ewma = 0.7 * ewma.
  gauge.Update(0, 100, 0.0, 1000.0);  // 0.53193: inside the band, holds
  gauge.Update(0, 100, 0.0, 1000.0);  // 0.372351: still above 0.35, holds
  EXPECT_TRUE(gauge.deferred());
  EXPECT_EQ(gauge.mode_switches(), 1u);
  gauge.Update(0, 100, 0.0, 1000.0);  // 0.2606457: recovers
  EXPECT_FALSE(gauge.deferred());
  EXPECT_EQ(gauge.mode_switches(), 2u);
  // The wait arm saturates the gauge even with an empty queue: a 3x
  // overrun of the deadline is instant 3.0, and
  // 0.9 + 0.7 * 0.2606457 = 1.0824520 trips in one report.
  gauge.Update(0, 100, 3000.0, 1000.0);
  EXPECT_TRUE(gauge.deferred());
  EXPECT_EQ(gauge.mode_switches(), 3u);
  // A load hovering inside the band (instant 0.5) converges to 0.5 from
  // above and never recovers; on a fresh gauge it converges from below and
  // never trips. Hysteresis: no flapping either way.
  PressureGauge calm;
  for (int i = 0; i < 50; ++i) {
    gauge.Update(50, 100, 0.0, 1000.0);
    calm.Update(50, 100, 0.0, 1000.0);
  }
  EXPECT_TRUE(gauge.deferred());
  EXPECT_EQ(gauge.mode_switches(), 3u);
  EXPECT_FALSE(calm.deferred());
  EXPECT_EQ(calm.mode_switches(), 0u);
}

/// `serve.adapt_schedule` chaos, end to end through the service: a
/// misfiring scheduler defers every request even though the gauge reads calm,
/// so every request is answered from stale cached state and every ingest is
/// buffered. The fault must only ever cost freshness — never an
/// observation: once the fault clears and the store drains, per-user state
/// is byte-for-byte identical to the inline run of the same sequence. (The
/// calm gauge also drains a few dirty users after each take; that replays
/// the same deltas in the same order, so it cannot change the end state.)
TEST_F(OverloadChaosTest, SchedulerMisfireFaultDefersButLosesNothing) {
  core::LightMob model(SmallConfig());
  const std::vector<data::Sample> stream = MakeStream(4, 12);

  // Inline reference: the legacy path over the same sequence.
  SessionStore inline_store{SessionStoreConfig{}};
  {
    ServiceConfig config;
    config.workers = 1;
    PredictionService service(model, inline_store, config);
    for (const auto& sample : stream) {
      const Prediction p = service.Submit(sample).get();
      EXPECT_EQ(p.outcome, RequestOutcome::kOk);
      EXPECT_FALSE(p.stale_adapt);
    }
    service.Shutdown();
    EXPECT_EQ(service.Stats().stale_adapt_requests, 0u);
    EXPECT_EQ(service.Stats().deferred_ingests, 0u);
  }

  FaultRegistry::Instance().Arm("serve.adapt_schedule", FaultSpec{1.0, 0, true});
  SessionStore store{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 1;
  // Elastic needs a deadline; requests are sequential, so nothing queues
  // near this one and the gauge reads calm.
  config.deadline_us = 10 * 1000 * 1000;
  config.adapt.mode = AdaptMode::kElastic;
  PredictionService service(model, store, config);
  uint32_t max_depth = 0;
  for (const auto& sample : stream) {
    const Prediction p = service.Submit(sample).get();
    // A stale answer is still a valid on-time adapted response: kOk, with
    // the deferral flagged out of band.
    EXPECT_EQ(p.outcome, RequestOutcome::kOk);
    EXPECT_TRUE(p.stale_adapt);  // every request misfired into deferral
    ASSERT_EQ(p.scores.size(), 12u);
    EXPECT_TRUE(AllFinite(p.scores));
    max_depth = std::max(max_depth, p.stale_depth);
  }
  service.Shutdown();

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.stale_adapt_requests, stream.size());
  EXPECT_GT(stats.deferred_ingests, 0u);
  EXPECT_EQ(stats.stale_depth.Count(), stream.size());
  EXPECT_EQ(static_cast<uint32_t>(stats.stale_depth.MaxUs()), max_depth);
  EXPECT_GT(
      FaultRegistry::Instance().StatsFor("serve.adapt_schedule").evaluations,
      0u);

  // The fault clears; one full drain must leave zero deferred residue and
  // bit-identical per-user state.
  FaultRegistry::Instance().DisarmAll();
  store.DrainDirtyUsers(0);
  EXPECT_EQ(store.DirtyUserCount(), 0u);
  EXPECT_EQ(store.PendingDeltaCount(), 0u);
  for (int64_t user = 0; user < 4; ++user) {
    const std::string drained = StoreUserBytes(store, user);
    const std::string reference = StoreUserBytes(inline_store, user);
    ASSERT_FALSE(reference.empty()) << "user " << user;
    EXPECT_EQ(drained, reference) << "user " << user;
  }
}

/// Headline acceptance: true open-loop bursts at three intensities against
/// an elastic service with the scheduler fault armed at a partial rate.
/// Arrivals, completions, sheds and source drops must balance exactly on
/// both sides of the admission boundary, delivered scores stay finite, and
/// after every burst one drain clears all deferred residue.
TEST_F(OverloadChaosTest, OpenLoopBurstsKeepExactAccountingUnderChaos) {
  core::LightMob model(SmallConfig());
  const std::vector<data::Sample> stream =
      BuildReplayStream(MakeStream(8, 25), /*min_requests=*/600);

  FaultRegistry::Instance().Arm("serve.adapt_schedule", FaultSpec{0.2, 0, true});

  uint64_t stale_total = 0;
  const double rates[] = {2000.0, 8000.0, 32000.0};
  for (const double qps : rates) {
    SessionStore store{SessionStoreConfig{}};
    ServiceConfig config;
    config.workers = 2;
    config.queue_capacity = 32;
    // Elastic needs a deadline. 25 ms (perfbench overload's) is well above
    // a burst's queueing even under TSan, so requests reach the elastic
    // adapt path instead of the kTimedOut fallback; the full 32-slot queue
    // still reads as pressure through the gauge's depth arm.
    config.deadline_us = 25000;
    config.adapt.mode = AdaptMode::kElastic;
    PredictionService service(model, store, config);

    LoadGenConfig lg;
    lg.open_loop = true;
    lg.target_qps = qps;
    lg.clients = 4;
    lg.max_requests = 600;
    lg.max_in_flight = 64;
    lg.track_hits = true;
    const LoadGenResult result = RunLoadGen(service, stream, lg);
    service.Shutdown();

    // Generator-side ledger: every scheduled arrival is delivered, shed at
    // admission, or dropped at the source — nothing vanishes.
    EXPECT_EQ(result.arrivals, 600u) << "qps " << qps;
    EXPECT_EQ(result.arrivals,
              result.completed + result.shed + result.dropped_arrivals)
        << "qps " << qps;
    EXPECT_GT(result.completed, 0u) << "qps " << qps;
    EXPECT_LE(result.hits, result.scored);
    EXPECT_LE(result.scored, result.completed);

    // Service-side ledger mirrors it exactly (source drops never submitted).
    const ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.accounted(), result.completed + result.shed)
        << "qps " << qps;
    EXPECT_EQ(stats.completed, result.completed) << "qps " << qps;
    // The deadline must not turn the burst into frozen-model fallbacks:
    // some requests still reach the elastic adapt path.
    EXPECT_LT(stats.timeouts, stats.completed) << "qps " << qps;
    EXPECT_EQ(stats.stale_adapt_requests, stats.stale_depth.Count());
    stale_total += stats.stale_adapt_requests;

    // Post-burst convergence: one drain, zero deferred residue.
    store.DrainDirtyUsers(0);
    EXPECT_EQ(store.DirtyUserCount(), 0u) << "qps " << qps;
    EXPECT_EQ(store.PendingDeltaCount(), 0u) << "qps " << qps;
  }

  // Across three bursts the deferral rung must actually have been used —
  // the armed fault alone guarantees it statistically (~75+ takes/run).
  EXPECT_GT(stale_total, 0u);
  EXPECT_GT(
      FaultRegistry::Instance().StatsFor("serve.adapt_schedule").evaluations,
      0u);
  EXPECT_GT(FaultRegistry::Instance().StatsFor("serve.adapt_schedule").fired,
            0u);
}

}  // namespace
}  // namespace adamove::serve
