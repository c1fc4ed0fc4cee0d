// Serving demo: the request path of a production deployment in miniature.
// A LightMob model is trained once, then frozen behind a
// serve::PredictionService — worker threads flush dynamic micro-batches of
// check-in requests, each prediction adapts per-user via the sharded
// serve::SessionStore (PTTA's knowledge base, LRU-bounded), and per-stage
// latency lands in mergeable log-bucketed histograms.
//
// Build: cmake --build build --target serving_demo

#include <cstdio>
#include <future>
#include <vector>

#include "core/lightmob.h"
#include "core/metrics.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "data/preprocess.h"
#include "data/synthetic.h"
#include "serve/load_gen.h"
#include "serve/prediction_service.h"
#include "serve/session_store.h"

using namespace adamove;

int main() {
  // World + trained model (identical setup to quickstart, abridged).
  data::DatasetPreset preset = data::NycLikePreset();
  data::ScalePreset(preset, 0.3);
  data::SyntheticResult world = data::GenerateSynthetic(preset.synthetic);
  data::PreprocessedData pre =
      data::Preprocess(world.trajectories, preset.preprocess);
  data::SplitConfig split;
  data::Dataset dataset = data::MakeDataset(pre, split);

  core::ModelConfig config;
  config.num_locations = dataset.num_locations;
  config.num_users = dataset.num_users;
  config.lambda = preset.lambda;
  core::LightMob model(config);
  core::TrainConfig tc;
  tc.max_epochs = 3;
  tc.max_train_samples_per_epoch = 2000;  // keep the demo snappy
  core::Trainer(tc).Train(model, dataset);

  // Online service: 2 workers, micro-batches of up to 8 requests flushed
  // after at most 1 ms, per-user adapter state capped at 512 residents.
  serve::SessionStoreConfig store_config;
  store_config.max_resident_users = 512;
  serve::SessionStore store(store_config);
  serve::ServiceConfig service_config;
  service_config.workers = 2;
  serve::PredictionService service(model, store, service_config);

  // Replay the test period as live traffic and score it online.
  std::vector<data::Sample> stream =
      serve::BuildReplayStream(dataset.test, /*min_requests=*/0);
  std::printf("serving %zu test-period requests...\n", stream.size());
  core::MetricAccumulator accuracy;
  std::vector<std::future<serve::Prediction>> inflight;
  inflight.reserve(stream.size());
  for (const auto& sample : stream) inflight.push_back(service.Submit(sample));
  for (size_t i = 0; i < stream.size(); ++i) {
    accuracy.Add(inflight[i].get().scores, stream[i].target.location);
  }
  service.Shutdown();

  const serve::ServiceStats stats = service.Stats();
  const core::Metrics m = accuracy.Result();
  std::printf("\nonline Rec@1 %.3f  Rec@10 %.3f  (served=%llu, mean batch "
              "%.2f, resident users=%zu, evictions=%llu)\n",
              m.rec1, m.rec10,
              static_cast<unsigned long long>(stats.completed),
              stats.MeanBatchSize(), store.UserCount(),
              static_cast<unsigned long long>(store.EvictionCount()));
  std::printf("stage latency:\n  queue  %s\n  encode %s\n  adapt  %s\n",
              stats.queue_us.SummaryMs().c_str(),
              stats.encode_us.SummaryMs().c_str(),
              stats.adapt_us.SummaryMs().c_str());
  // The encoder resumes each user from the state its previous request left
  // (DESIGN.md §14, "Prefix state"): rows it computed vs rows it reused.
  std::printf("encoder rows: encoded=%llu reused=%llu; prefix state: "
              "%llu users, %.1f KiB\n",
              static_cast<unsigned long long>(stats.encoded_rows),
              static_cast<unsigned long long>(stats.reused_rows),
              static_cast<unsigned long long>(stats.prefix_state_entries),
              static_cast<double>(stats.prefix_state_bytes) / 1024.0);
  // All zero unless fault points are armed (ADAMOVE_FAULTS) or deadlines
  // are configured (Submit blocks on a full queue, so nothing sheds here) —
  // the availability ledger of DESIGN.md §9.
  std::printf("outcomes: ok=%llu degraded=%llu timeouts=%llu shed=%llu\n",
              static_cast<unsigned long long>(stats.ok_requests()),
              static_cast<unsigned long long>(stats.degraded_requests),
              static_cast<unsigned long long>(stats.timeouts),
              static_cast<unsigned long long>(stats.shed_requests));
  return 0;
}
