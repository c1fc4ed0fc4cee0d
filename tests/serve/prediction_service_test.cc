#include "serve/prediction_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "core/lightmob.h"
#include "core/online_adapter.h"
#include "nn/autograd_mode.h"
#include "nn/kernels.h"
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

/// With one worker, the service must be *bit-identical* to driving
/// core::OnlineAdapter::ObserveAndPredict over the same stream. (With more
/// workers, two requests of one user can be served at once, so per-user
/// order across concurrent requests is not promised; DESIGN.md §4.5.)
TEST(PredictionServiceTest, OneWorkerIsBitIdenticalToOnlineAdapter) {
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
/// OnlineAdapter fed the encoder's graph-walk representations (never the
/// raw path).
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
/// service runs the raw path for every RNN-family encoder and walks the
/// graph only for the Transformer, which has none. Either way it answers
/// bit-identically to the graph-walk reference.
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
    // Only the raw path leaves prefix state, so an RNN family that silently
    // walked the graph fails here.
    if (c.route == core::ForwardMode::kPlan) {
      EXPECT_GT(service.Stats().prefix_state_entries, 0u) << family;
    } else {
      EXPECT_EQ(service.Stats().prefix_state_entries, 0u) << family;
    }
  }
}

TEST(PredictionServiceTest, MicroBatchingServesAllRequestsConcurrently) {
  core::LightMob model(SmallConfig());
  SessionStore store{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 4;
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
}

TEST(PredictionServiceTest, TrySubmitRejectsWhenFullInsteadOfBlocking) {
  core::LightMob model(SmallConfig());
  SessionStore store{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 2;
  PredictionService service(model, store, config);
  const std::vector<data::Sample> stream = MakeStream(1, 8);

  // The first request's completion hook holds the one worker inside it
  // until every other arrival has been submitted, so the 2 requests queued
  // behind it keep the queue full.
  std::promise<void> entered;
  std::future<void> worker_entered = entered.get_future();
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::vector<std::future<Prediction>> accepted;
  int rejected = 0;
  std::future<Prediction> first;
  ASSERT_TRUE(service.TrySubmit(stream[0], &first, [&] {
    entered.set_value();
    released.wait();
  }));
  accepted.push_back(std::move(first));
  worker_entered.wait();
  for (size_t i = 1; i < stream.size(); ++i) {
    std::future<Prediction> f;
    if (service.TrySubmit(stream[i], &f)) {
      accepted.push_back(std::move(f));
    } else {
      ++rejected;
    }
  }
  release.set_value();
  EXPECT_GT(rejected, 0);  // capacity 2 cannot absorb 7 instant arrivals
  for (auto& f : accepted) EXPECT_EQ(f.get().scores.size(), 12u);
  service.Shutdown();
  // The shed ledger: every rejection is counted, every submission accounted.
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.shed_requests, static_cast<uint64_t>(rejected));
  EXPECT_EQ(stats.completed, accepted.size());
  EXPECT_EQ(stats.accounted(), stream.size());
}

/// TrySubmit's completion hook runs exactly once per accepted request, after
/// the request is counted in Stats() and its promise is fulfilled: LoadGen's
/// open loop and perfbench's read the future and the ledger from inside it.
/// With one worker the ledger check is exact (the hook of the k-th request
/// sees k completions); with more it is a lower bound, raced under TSan.
TEST(PredictionServiceTest, TrySubmitHookFiresOnceAfterTheAnswerIsAccounted) {
  core::LightMob model(SmallConfig());
  const std::vector<data::Sample> stream = MakeStream(4, 6);
  const size_t n = stream.size();
  for (const int workers : {1, 3}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    // Declared before the service, so its workers are joined before the
    // state their hooks touch is destroyed.
    std::vector<std::future<Prediction>> futures(n);
    std::vector<std::atomic<int>> fired(n);
    std::vector<std::atomic<bool>> ready_in_hook(n);
    std::vector<std::atomic<bool>> counted_in_hook(n);
    std::atomic<uint64_t> hooks_started{0};
    std::atomic<size_t> hooks_done{0};
    std::promise<void> all_fired;
    SessionStore store{SessionStoreConfig{}};
    ServiceConfig config;
    config.workers = workers;
    PredictionService service(model, store, config);
    for (size_t i = 0; i < n; ++i) {
      // TrySubmit assigns futures[i] before a worker can see the request,
      // so the hook may read it.
      ASSERT_TRUE(service.TrySubmit(stream[i], &futures[i], [&, i] {
        // Each started hook's request was accounted before its hook began,
        // this one's included.
        const uint64_t started = hooks_started.fetch_add(1) + 1;
        fired[i].fetch_add(1);
        ready_in_hook[i] = futures[i].wait_for(std::chrono::seconds(0)) ==
                           std::future_status::ready;
        counted_in_hook[i] = service.Stats().completed >= started;
        if (hooks_done.fetch_add(1) + 1 == n) all_fired.set_value();
      }));
    }
    // Read the futures only once no hook can still be reading them.
    ASSERT_EQ(all_fired.get_future().wait_for(std::chrono::seconds(60)),
              std::future_status::ready);
    for (auto& f : futures) EXPECT_EQ(f.get().scores.size(), 12u);
    service.Shutdown();

    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(fired[i].load(), 1) << "request " << i;
      EXPECT_TRUE(ready_in_hook[i].load()) << "request " << i;
      EXPECT_TRUE(counted_in_hook[i].load()) << "request " << i;
    }
    EXPECT_EQ(service.Stats().completed, n);
  }
}

/// The take policy is work-conserving: a lone request is taken as soon as a
/// worker is free instead of waiting out a flush window for batch-mates
/// that never come.
TEST(PredictionServiceTest, LoneRequestsAreServedOnArrivalByDefault) {
  core::LightMob model(SmallConfig());
  SessionStore store{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 1;
  PredictionService service(model, store, config);
  const std::vector<data::Sample> stream = MakeStream(5, 10);
  ASSERT_EQ(stream.size(), 50u);
  std::vector<double> queue_us;
  for (const auto& sample : stream) {
    queue_us.push_back(service.Submit(sample).get().queue_us);
  }
  service.Shutdown();
  std::nth_element(queue_us.begin(), queue_us.begin() + 25, queue_us.end());
  EXPECT_LT(queue_us[25], 1000.0);
  EXPECT_EQ(service.Stats().batches, stream.size());
}

/// max_batch and max_wait_us are ignored: a worker takes one request per
/// take, so a 10 s flush window with room for a batch-mate never holds a
/// lone request, and every take serves exactly one request.
TEST(PredictionServiceTest, IgnoredBatchFieldsNeverHoldALoneRequest) {
  core::LightMob model(SmallConfig());
  SessionStore store{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 1;
  config.max_batch = 2;
  config.max_wait_us = 10 * 1000 * 1000;
  PredictionService service(model, store, config);
  const std::vector<data::Sample> stream = MakeStream(2, 3);
  std::future<Prediction> first = service.Submit(stream[2]);
  ASSERT_EQ(first.wait_for(std::chrono::seconds(1)),
            std::future_status::ready);
  EXPECT_EQ(first.get().scores.size(), 12u);
  EXPECT_EQ(service.Submit(stream[5]).get().scores.size(), 12u);
  service.Shutdown();
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.batches, stats.completed);
}

/// The pressure gauge reads queueing against the request deadline, so an
/// elastic service without one is a configuration error, rejected before
/// any worker starts.
TEST(PredictionServiceDeathTest, ElasticWithoutDeadlineAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  core::LightMob model(SmallConfig());
  SessionStore store{SessionStoreConfig{}};
  ServiceConfig config;
  config.adapt.mode = AdaptMode::kElastic;
  EXPECT_DEATH({ PredictionService service(model, store, config); },
               "deadline_us");
}

TEST(PredictionServiceTest, ShutdownDrainsOutstandingRequests) {
  core::LightMob model(SmallConfig());
  SessionStore store{SessionStoreConfig{}};
  ServiceConfig config;
  config.workers = 2;
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

/// One encoder user's check-in walk for the prefix-state differential runs.
struct Walk {
  std::vector<data::Point> window;
  int64_t t = 1333238400;
  int steps = 0;
};

/// Advances encoder user `u`'s window by one request: mostly one more
/// check-in (an extension), an exact repeat every ninth request, a session
/// restart at user 1's 23rd and 51st requests, and a slide once the window
/// holds 64 points. The sample's knowledge-base key is left to the caller.
data::Sample NextWindow(int64_t u, Walk* walk) {
  const int step = walk->steps++;
  if (step == 0 || (step + u) % 9 != 4) {
    if (u == 1 && (step == 23 || step == 51)) walk->window.clear();
    walk->window.push_back({u, (u * 5 + step * 7) % 12, walk->t});
    if (walk->window.size() > 64) walk->window.erase(walk->window.begin());
    walk->t += 3 * data::kSecondsPerHour + u * 60;
  }
  data::Sample sample;
  sample.recent = walk->window;
  sample.target = {u, (u * 5 + step * 7 + 3) % 12, walk->t};
  return sample;
}

/// Serves one round — every request in flight together, so the workers
/// race — and checks each answer bit for bit against `reference`, one
/// sequential OnlineAdapter encoding through the stateless raw path
/// (PrefixRepresentations). Each knowledge-base key appears at most once
/// per round, so per-key order matches the reference's.
void ServeRoundAgainstReference(core::LightMob& model,
                                PredictionService& service,
                                core::OnlineAdapter& reference,
                                const std::vector<data::Sample>& round,
                                const std::string& where) {
  std::vector<std::future<Prediction>> futures;
  for (const data::Sample& sample : round) {
    futures.push_back(service.Submit(sample));
  }
  for (size_t i = 0; i < round.size(); ++i) {
    const Prediction got = futures[i].get();
    const std::vector<float> want =
        reference.ObserveAndPredict(model, round[i]);
    ASSERT_EQ(got.outcome, RequestOutcome::kOk) << where;
    ASSERT_EQ(got.scores.size(), want.size()) << where;
    ASSERT_EQ(std::memcmp(got.scores.data(), want.data(),
                          want.size() * sizeof(float)),
              0)
        << where << " request " << i << " differs in its bits";
  }
}

ServiceConfig TwoWorkers() {
  ServiceConfig config;
  config.workers = 2;
  return config;
}

/// The prefix state is invisible in the answers: 2 workers serving
/// interleaved users — each encoder user's two knowledge-base keys send the
/// same window in the same round, so two workers race on one prefix entry —
/// answer bit-identically to the stateless reference through extensions,
/// session restarts, exact repeats and 64-point slides. Between drained
/// phases the encoder weights are overwritten in place and InvalidatePlans()
/// called, then the kernel backend switched; a stale entry surviving either
/// would change the encoded rows and so the answers.
TEST(PredictionServiceTest, PrefixStateAnswersMatchStatelessReference) {
  namespace k = ::adamove::nn::kernels;
  core::LightMob model(SmallConfig());
  SessionStore store{SessionStoreConfig{}};
  PredictionService service(model, store, TwoWorkers());
  core::OnlineAdapter reference{core::PttaConfig{}};
  std::vector<Walk> walks(3);
  uint64_t reused_before = 0;
  uint64_t window_rows = 0;
  for (int phase = 0; phase < 3; ++phase) {
    if (phase == 1) {
      for (float& x : model.encoder().Parameters().front().data()) {
        x += 0.125f;
      }
      service.InvalidatePlans();
      EXPECT_EQ(service.Stats().prefix_state_entries, 0u);
    }
    if (phase == 2) {
      k::SetBackendForTest(k::ActiveBackend() == k::Backend::kSimd
                               ? k::Backend::kScalar
                               : k::Backend::kSimd);
    }
    for (int r = 0; r < 32; ++r) {
      std::vector<data::Sample> round;
      for (int64_t u = 0; u < 3; ++u) {
        data::Sample sample = NextWindow(u, &walks[static_cast<size_t>(u)]);
        for (int64_t key = 0; key < 2; ++key) {
          sample.user = u * 2 + key;
          round.push_back(sample);
          window_rows += sample.recent.size();
        }
      }
      ServeRoundAgainstReference(
          model, service, reference, round,
          "phase " + std::to_string(phase) + " round " + std::to_string(r));
    }
    const ServiceStats stats = service.Stats();
    EXPECT_GT(stats.reused_rows, reused_before) << "phase " << phase;
    reused_before = stats.reused_rows;
    EXPECT_LE(stats.prefix_state_entries, 3u);
    EXPECT_GT(stats.prefix_state_bytes, 0u);
  }
  EXPECT_GE(walks[0].window.size(), 64u);  // the cap slide was exercised
  service.Shutdown();
  // The row ledger: every window row was either encoded or reused.
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.encoded_rows + stats.reused_rows, window_rows);
  k::RefreshBackendFromEnv();
}

/// The prefix state follows the store's residency cap: with a store capped
/// at 4 users, 8 encoder users (4 knowledge-base keys, so the store itself
/// never evicts) leave at most 4 prefix entries, and the answers stay
/// bit-identical while entries are evicted and re-encoded.
TEST(PredictionServiceTest, CappedStoreBoundsPrefixStateAndStaysBitIdentical) {
  core::LightMob model(SmallConfig());
  SessionStoreConfig store_config;
  store_config.max_resident_users = 4;
  SessionStore store{store_config};
  PredictionService service(model, store, TwoWorkers());
  core::OnlineAdapter reference{core::PttaConfig{}};
  std::vector<Walk> walks(8);
  for (int r = 0; r < 60; ++r) {
    const int64_t first = r % 6 == 5 ? 4 : 0;
    std::vector<data::Sample> round;
    for (int64_t u = first; u < first + 4; ++u) {
      round.push_back(NextWindow(u, &walks[static_cast<size_t>(u)]));
      round.back().user = u % 4;
    }
    ServeRoundAgainstReference(model, service, reference, round,
                               "round " + std::to_string(r));
    EXPECT_LE(service.Stats().prefix_state_entries, 4u);
  }
  service.Shutdown();
  EXPECT_GT(service.Stats().reused_rows, 0u);
  EXPECT_EQ(store.EvictionCount(), 0u);
}

}  // namespace
}  // namespace adamove::serve
