#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/fault_injection.h"
#include "core/lightmob.h"
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

/// Open-loop bursts at three intensities against an inline service with a
/// 25 ms deadline and `serve.ptta_generate` armed at a partial rate.
/// Arrivals, completions, sheds and source drops must balance exactly on
/// both sides of the admission boundary, and the requests the fault hit are
/// exactly the ones delivered degraded: overload costs an answer nothing
/// but queueing, shedding or the deadline's frozen fallback.
TEST_F(OverloadChaosTest, OpenLoopBurstsKeepExactAccountingUnderChaos) {
  core::LightMob model(SmallConfig());
  const std::vector<data::Sample> stream =
      BuildReplayStream(MakeStream(8, 25), /*min_requests=*/600);

  FaultRegistry& faults = FaultRegistry::Instance();
  faults.Arm("serve.ptta_generate", FaultSpec{0.2, 0, true});

  const double rates[] = {2000.0, 8000.0, 32000.0};
  for (const double qps : rates) {
    SessionStore store{SessionStoreConfig{}};
    ServiceConfig config;
    config.workers = 2;
    config.queue_capacity = 32;
    // 25 ms (the benchmark's overload deadline) is well above a burst's
    // queueing even under TSan, so requests reach the adapt path, where the
    // fault is probed, instead of the kTimedOut fallback.
    config.deadline_us = 25000;
    PredictionService service(model, store, config);
    const uint64_t fired_before = faults.StatsFor("serve.ptta_generate").fired;

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
    EXPECT_EQ(stats.degraded_requests, result.degraded) << "qps " << qps;
    EXPECT_EQ(stats.timeouts, result.timed_out) << "qps " << qps;
    // The deadline must not turn the burst into frozen-model fallbacks:
    // some requests still reach the adapt path.
    EXPECT_LT(stats.timeouts, stats.completed) << "qps " << qps;
    // Fault ledger: each firing degraded its request, and nothing else did.
    EXPECT_EQ(stats.degraded_requests,
              faults.StatsFor("serve.ptta_generate").fired - fired_before)
        << "qps " << qps;
  }

  EXPECT_GT(faults.StatsFor("serve.ptta_generate").evaluations, 0u);
  EXPECT_GT(faults.StatsFor("serve.ptta_generate").fired, 0u);
}

}  // namespace
}  // namespace adamove::serve
