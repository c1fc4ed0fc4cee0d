#include "serve/prediction_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/lightmob.h"
#include "core/online_adapter.h"
#include "nn/autograd_mode.h"
#include "serve/load_gen.h"

namespace adamove::serve {
namespace {

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

/// A deterministic per-user check-in stream: every user walks its own
/// location cycle, one sample per step with a growing recent window.
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

/// With max_batch=1 and one worker, the service must be *bit-identical* to
/// driving core::OnlineAdapter::ObserveAndPredict over the same stream —
/// micro-batching and sharding are pure scheduling, never arithmetic.
TEST(PredictionServiceTest, MaxBatch1IsBitIdenticalToOnlineAdapter) {
  core::LightMob model(SmallConfig());
  const std::vector<data::Sample> stream = MakeStream(4, 10);

  core::OnlineAdapter reference{core::PttaConfig{}};
  std::vector<std::vector<float>> expected;
  for (const auto& sample : stream) {
    expected.push_back(reference.ObserveAndPredict(model, sample));
  }

  SessionStore store{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 1;
  config.max_batch = 1;
  PredictionService service(model, store, config);
  for (size_t i = 0; i < stream.size(); ++i) {
    const Prediction p = service.Submit(stream[i]).get();
    ASSERT_EQ(p.scores.size(), expected[i].size());
    for (size_t j = 0; j < p.scores.size(); ++j) {
      // EXPECT_EQ, not NEAR: the acceptance bar is bit-exactness.
      ASSERT_EQ(p.scores[j], expected[i][j])
          << "request " << i << " score " << j;
    }
  }
  service.Shutdown();
  EXPECT_EQ(service.Stats().completed, stream.size());
}

/// The reference every inference route must match: one sequential
/// OnlineAdapter fed the encoder's graph-walk representations (never a
/// compiled plan).
std::vector<std::vector<float>> GraphWalkReference(
    core::LightMob& model, const std::vector<data::Sample>& stream) {
  core::OnlineAdapter reference{core::PttaConfig{}};
  std::vector<std::vector<float>> expected;
  for (const auto& sample : stream) {
    nn::Tensor reps;
    {
      nn::NoGradGuard no_grad;
      reps = model.trajectory_encoder()->Forward(sample.recent,
                                                 /*training=*/false);
    }
    const int64_t hidden = reps.cols();
    const std::vector<float>& data = reps.data();
    for (int64_t k = 0; k + 1 < reps.rows(); ++k) {
      const size_t next = static_cast<size_t>(k + 1);
      reference.Observe(sample.user,
                        std::vector<float>(data.begin() + k * hidden,
                                           data.begin() + (k + 1) * hidden),
                        sample.recent[next].location,
                        sample.recent[next].timestamp);
    }
    expected.push_back(reference.Predict(
        model, sample.user, std::vector<float>(data.end() - hidden, data.end()),
        sample.target.timestamp));
  }
  return expected;
}

/// The one inference routing rule (DESIGN.md §14): a default-configured
/// service runs compiled plans for every RNN-family encoder and walks the
/// graph only for the Transformer, which the tracer cannot compile. Either
/// way it answers bit-identically to the graph-walk reference.
TEST(PredictionServiceTest, DefaultServiceRoutesByEncoderFamily) {
  const struct {
    core::EncoderType encoder;
    core::ForwardMode route;
  } cases[] = {{core::EncoderType::kLstm, core::ForwardMode::kPlan},
               {core::EncoderType::kGru, core::ForwardMode::kPlan},
               {core::EncoderType::kRnn, core::ForwardMode::kPlan},
               {core::EncoderType::kTransformer, core::ForwardMode::kGraph}};
  const std::vector<data::Sample> stream = MakeStream(4, 10);
  for (const auto& c : cases) {
    const std::string family = core::EncoderTypeName(c.encoder);
    core::ModelConfig model_config = SmallConfig();
    model_config.encoder = c.encoder;
    core::LightMob model(model_config);
    const std::vector<std::vector<float>> expected =
        GraphWalkReference(model, stream);

    SessionStore store{SessionStoreConfig{}};
    PredictionService service(model, store, ServiceConfig{});
    EXPECT_EQ(service.forward_mode(), c.route) << family;
    for (size_t i = 0; i < stream.size(); ++i) {
      const Prediction p = service.Submit(stream[i]).get();
      EXPECT_EQ(p.outcome, RequestOutcome::kOk) << family;
      ASSERT_EQ(p.scores.size(), expected[i].size()) << family;
      for (size_t j = 0; j < p.scores.size(); ++j) {
        ASSERT_EQ(p.scores[j], expected[i][j])
            << family << " request " << i << " score " << j;
      }
    }
    service.Shutdown();
    if (c.route == core::ForwardMode::kPlan) {
      EXPECT_GT(service.planner().compiles(), 0) << family;
    } else {
      EXPECT_EQ(service.planner().compiles(), 0) << family;
    }
    EXPECT_EQ(service.Stats().plan_verify_rejects, 0u) << family;
  }
}

TEST(PredictionServiceTest, MicroBatchingServesAllRequestsConcurrently) {
  core::LightMob model(SmallConfig());
  SessionStore store{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 4;
  config.max_batch = 8;
  config.max_wait_us = 500;
  config.queue_capacity = 64;  // small: exercises Submit backpressure
  PredictionService service(model, store, config);

  const std::vector<data::Sample> stream = MakeStream(8, 25);
  std::vector<std::thread> clients;
  std::atomic<int> bad_scores{0};
  constexpr int kClients = 4;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < stream.size();
           i += kClients) {
        const Prediction p = service.Submit(stream[i]).get();
        if (p.scores.size() != 12u) bad_scores.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  service.Shutdown();

  EXPECT_EQ(bad_scores.load(), 0);
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, stream.size());
  EXPECT_EQ(stats.queue_us.Count(), stream.size());
  EXPECT_EQ(stats.encode_us.Count(), stream.size());
  EXPECT_EQ(stats.adapt_us.Count(), stream.size());
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GE(stats.MeanBatchSize(), 1.0);
}

TEST(PredictionServiceTest, TrySubmitRejectsWhenFullInsteadOfBlocking) {
  core::LightMob model(SmallConfig());
  SessionStore store{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 1;
  // max_batch > capacity + a long flush deadline: the worker holds the
  // 2 queued requests for the full 200 ms window, so the queue is
  // observably full while the remaining arrivals pour in.
  config.max_batch = 8;
  config.max_wait_us = 200 * 1000;
  config.queue_capacity = 2;
  PredictionService service(model, store, config);
  const std::vector<data::Sample> stream = MakeStream(1, 8);

  std::vector<std::future<Prediction>> accepted;
  int rejected = 0;
  for (const auto& sample : stream) {
    std::future<Prediction> f;
    if (service.TrySubmit(sample, &f)) {
      accepted.push_back(std::move(f));
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);  // capacity 2 cannot absorb 8 instant arrivals
  for (auto& f : accepted) EXPECT_EQ(f.get().scores.size(), 12u);
  service.Shutdown();
}

TEST(PredictionServiceTest, ShutdownDrainsOutstandingRequests) {
  core::LightMob model(SmallConfig());
  SessionStore store{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 2;
  config.max_batch = 4;
  PredictionService service(model, store, config);
  const std::vector<data::Sample> stream = MakeStream(2, 10);
  std::vector<std::future<Prediction>> inflight;
  for (const auto& sample : stream) {
    inflight.push_back(service.Submit(sample));
  }
  service.Shutdown();  // must resolve every future before returning
  for (auto& f : inflight) {
    EXPECT_EQ(f.get().scores.size(), 12u);
  }
  EXPECT_EQ(service.Stats().completed, stream.size());
}

TEST(PredictionServiceTest, LoadGenReportsThroughputAndLatency) {
  core::LightMob model(SmallConfig());
  SessionStore store{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 2;
  PredictionService service(model, store, config);

  const std::vector<data::Sample> raw = MakeStream(4, 10);
  const std::vector<data::Sample> stream =
      BuildReplayStream(raw, /*min_requests=*/100);
  EXPECT_GE(stream.size(), 100u);
  // Replay stream is ordered by target timestamp.
  for (size_t i = 1; i < stream.size() && i < raw.size(); ++i) {
    EXPECT_LE(stream[i - 1].target.timestamp, stream[i].target.timestamp);
  }

  LoadGenConfig lg;
  lg.clients = 4;
  lg.max_requests = 100;
  const LoadGenResult result = RunLoadGen(service, stream, lg);
  service.Shutdown();
  EXPECT_EQ(result.completed, 100u);
  EXPECT_GT(result.qps, 0.0);
  EXPECT_EQ(result.e2e_us.Count(), 100u);
  EXPECT_GT(result.e2e_us.QuantileUs(0.5), 0.0);
}

}  // namespace
}  // namespace adamove::serve
