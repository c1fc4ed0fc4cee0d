#ifndef ADAMOVE_TESTS_SERVE_PREDICT_ONLY_H_
#define ADAMOVE_TESTS_SERVE_PREDICT_ONLY_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/model.h"
#include "data/dataset.h"
#include "serve/session_store.h"

namespace adamove::serve {

/// A predict-only request through the batch API (N = 1): a one-point window
/// carries no transition to ingest, so the call hydrates and touches `user`
/// and scores `query` at `query_time` against the user's knowledge base.
inline std::vector<float> PredictOnly(SessionStore& store,
                                      const core::AdaptableModel& model,
                                      int64_t user,
                                      const std::vector<float>& query,
                                      int64_t query_time) {
  data::Sample sample;
  sample.user = user;
  sample.recent.push_back({user, 0, query_time});
  sample.target = {user, 0, query_time};
  const SessionStore::RepsView reps(query.data(), 1,
                                    static_cast<int64_t>(query.size()));
  std::vector<std::vector<float>> scores =
      store.BatchObserveAndPredictEncoded(model, {{&sample, reps}});
  return std::move(scores[0]);
}

}  // namespace adamove::serve

#endif  // ADAMOVE_TESTS_SERVE_PREDICT_ONLY_H_
