// Accuracy guard for the streaming knowledge base: the loop of
// examples/streaming_adaptation, at a test-sized scale. Every request
// re-sends the user's whole sliding window; a knowledge base that stored
// those repeats would fill each location's FIFO with copies of one pattern
// and answer no better than the frozen model.

#include <gtest/gtest.h>

#include <deque>

#include "core/adamove.h"
#include "core/metrics.h"
#include "core/online_adapter.h"
#include "data/dataset.h"
#include "data/preprocess.h"
#include "data/synthetic.h"

namespace adamove::core {
namespace {

/// The recent-trajectory window: points of the last `context_sessions`
/// sessions (a session spans 72 h from its first point).
class SlidingWindow {
 public:
  explicit SlidingWindow(int context_sessions)
      : context_sessions_(context_sessions) {}

  void Push(const data::Point& p) {
    if (sessions_.empty() ||
        p.timestamp - sessions_.back().front().timestamp >
            72 * data::kSecondsPerHour) {
      sessions_.push_back({});
      while (static_cast<int>(sessions_.size()) > context_sessions_) {
        sessions_.pop_front();
      }
    }
    sessions_.back().push_back(p);
  }

  std::vector<data::Point> Window() const {
    std::vector<data::Point> out;
    for (const auto& s : sessions_) out.insert(out.end(), s.begin(), s.end());
    return out;
  }

 private:
  int context_sessions_;
  std::deque<std::vector<data::Point>> sessions_;
};

TEST(StreamingAccuracyTest, StreamingKnowledgeBaseBeatsTheFrozenModel) {
  data::DatasetPreset preset = data::NycLikePreset();
  data::ScalePreset(preset, 0.2);
  const data::SyntheticResult world = data::GenerateSynthetic(preset.synthetic);
  const data::PreprocessedData pre =
      data::Preprocess(world.trajectories, preset.preprocess);
  const data::Dataset dataset = data::MakeDataset(pre, data::SplitConfig{});

  ModelConfig config;
  config.num_locations = dataset.num_locations;
  config.num_users = dataset.num_users;
  config.lambda = preset.lambda;
  AdaMove model(config);
  TrainConfig tc;
  tc.max_epochs = 2;
  tc.max_train_samples_per_epoch = 1000;
  model.Train(dataset, tc);

  // Stream the busiest user's test-period check-ins; every request carries
  // the whole sliding window, so consecutive requests overlap.
  size_t user = 0;
  for (size_t u = 0; u < pre.users.size(); ++u) {
    if (pre.users[u].sessions.size() > pre.users[user].sessions.size()) {
      user = u;
    }
  }
  const auto& sessions = pre.users[user].sessions;
  const size_t test_begin = sessions.size() * 8 / 10;
  SlidingWindow window(preset.eval_context_sessions);
  for (size_t s = test_begin > 4 ? test_begin - 4 : 0; s < test_begin; ++s) {
    for (const auto& p : sessions[s]) window.Push(p);
  }
  MetricAccumulator frozen_acc;
  MetricAccumulator online_acc;
  OnlineAdapter online{PttaConfig{}};
  for (size_t s = test_begin; s < sessions.size(); ++s) {
    for (const auto& p : sessions[s]) {
      data::Sample sample;
      sample.user = static_cast<int64_t>(user);
      sample.recent = window.Window();
      sample.target = p;
      if (!sample.recent.empty()) {
        frozen_acc.Add(model.model().Scores(sample), p.location);
        online_acc.Add(online.ObserveAndPredict(model.model(), sample),
                       p.location);
      }
      window.Push(p);
    }
  }
  ASSERT_GT(online_acc.Result().count, 100);
  EXPECT_GT(online_acc.Result().rec1, frozen_acc.Result().rec1)
      << "streaming KB Rec@1 " << online_acc.Result().rec1 << ", frozen "
      << frozen_acc.Result().rec1 << " over " << online_acc.Result().count
      << " predictions";
}

}  // namespace
}  // namespace adamove::core
