#include "serve/load_gen.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "common/annotations.h"
#include "common/check.h"
#include "common/mutex.h"
#include "common/timer.h"

namespace adamove::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Whether the prediction's argmax matches the true next location.
bool Hit(const Prediction& p, int64_t target_location) {
  if (p.scores.empty()) return false;
  const auto best = std::max_element(p.scores.begin(), p.scores.end());
  return static_cast<int64_t>(best - p.scores.begin()) == target_location;
}

/// Folds one delivered prediction into the result (caller holds the lock).
void RecordDelivered(const Prediction& p, Clock::time_point submit_at,
                     int64_t target_location, bool track_hits,
                     LoadGenResult* result) {
  result->e2e_us.Record(std::chrono::duration<double, std::micro>(
                            Clock::now() - submit_at)
                            .count());
  ++result->completed;
  if (p.outcome == RequestOutcome::kDegraded) ++result->degraded;
  if (p.outcome == RequestOutcome::kTimedOut) ++result->timed_out;
  if (track_hits) {
    ++result->scored;
    if (Hit(p, target_location)) ++result->hits;
  }
}

/// True open-loop replay: every scheduled arrival fires on time via
/// TrySubmit, completions land in a callback, and the only cap is the
/// explicit in-flight limit — so offered load really is config.target_qps
/// even when the service saturates far below it.
LoadGenResult RunOpenLoop(PredictionService& service,
                          const std::vector<data::Sample>& stream,
                          const LoadGenConfig& config, size_t total) {
  ADAMOVE_CHECK_GT(config.target_qps, 0.0);
  ADAMOVE_CHECK_GT(config.max_in_flight, 0u);

  struct Shared {
    common::Mutex mu;
    common::CondVar drained;
    size_t in_flight ADAMOVE_GUARDED_BY(mu) = 0;
    LoadGenResult result ADAMOVE_GUARDED_BY(mu);
  };
  Shared sh;
  /// One outstanding request. The future is assigned by TrySubmit *before*
  /// the request is visible to workers (its documented contract), so the
  /// completion callback can always read it.
  struct Pending {
    std::future<Prediction> future;
    Clock::time_point submit_at;
    int64_t target_location = 0;
  };

  common::Timer wall;
  const auto start = Clock::now();

  auto client = [&](int client_index) {
    size_t k = 0;
    for (size_t pos = static_cast<size_t>(client_index); pos < total;
         pos += static_cast<size_t>(config.clients), ++k) {
      const double global_index =
          static_cast<double>(k) * config.clients + client_index;
      const auto send_at =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(global_index /
                                                    config.target_qps));
      std::this_thread::sleep_until(send_at);
      {
        common::MutexLock lock(sh.mu);
        ++sh.result.arrivals;
        if (sh.in_flight >= config.max_in_flight) {
          // Exact source-side drop: the arrival happened (it counts), the
          // service never saw it.
          ++sh.result.dropped_arrivals;
          continue;
        }
        ++sh.in_flight;
      }
      auto pending = std::make_shared<Pending>();
      pending->submit_at = Clock::now();
      pending->target_location = stream[pos].target.location;
      const bool track_hits = config.track_hits;
      const bool accepted = service.TrySubmit(
          stream[pos], &pending->future, [&sh, pending, track_hits] {
            const Prediction p = pending->future.get();
            common::MutexLock lock(sh.mu);
            RecordDelivered(p, pending->submit_at, pending->target_location,
                            track_hits, &sh.result);
            if (--sh.in_flight == 0) sh.drained.NotifyAll();
          });
      if (!accepted) {
        common::MutexLock lock(sh.mu);
        ++sh.result.shed;  // admission-queue full: shed, exactly once
        if (--sh.in_flight == 0) sh.drained.NotifyAll();
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(config.clients));
  for (int i = 0; i < config.clients; ++i) threads.emplace_back(client, i);
  for (auto& t : threads) t.join();
  // Every arrival has been accounted as submitted or dropped; now wait for
  // the outstanding submissions to resolve so the balance is exact.
  {
    common::MutexLock lock(sh.mu);
    while (sh.in_flight > 0) sh.drained.Wait(sh.mu);
  }

  LoadGenResult result = std::move(sh.result);
  result.wall_seconds = wall.ElapsedSec();
  result.qps = result.wall_seconds > 0.0
                   ? static_cast<double>(result.completed) /
                         result.wall_seconds
                   : 0.0;
  return result;
}

}  // namespace

std::vector<data::Sample> BuildReplayStream(
    const std::vector<data::Sample>& samples, size_t min_requests) {
  std::vector<data::Sample> stream;
  for (const auto& s : samples) {
    if (!s.recent.empty()) stream.push_back(s);
  }
  std::stable_sort(stream.begin(), stream.end(),
                   [](const data::Sample& a, const data::Sample& b) {
                     return a.target.timestamp < b.target.timestamp;
                   });
  ADAMOVE_CHECK(!stream.empty());
  const size_t pass = stream.size();
  while (min_requests > 0 && stream.size() < min_requests) {
    for (size_t i = 0; i < pass && stream.size() < min_requests; ++i) {
      stream.push_back(stream[i]);
    }
  }
  return stream;
}

LoadGenResult RunLoadGen(PredictionService& service,
                         const std::vector<data::Sample>& stream,
                         const LoadGenConfig& config) {
  ADAMOVE_CHECK_GT(config.clients, 0);
  ADAMOVE_CHECK(!stream.empty());
  const size_t total = config.max_requests > 0
                           ? std::min(config.max_requests, stream.size())
                           : stream.size();
  if (config.open_loop) return RunOpenLoop(service, stream, config, total);

  common::Mutex merge_mu;
  LoadGenResult result;
  common::Timer wall;
  const auto start = Clock::now();

  auto client = [&](int client_index) {
    LoadGenResult local;
    // Pacing: client i sends its k-th request at start + (k·clients + i)/qps
    // — an even interleave of the global schedule across clients.
    size_t k = 0;
    for (size_t pos = static_cast<size_t>(client_index); pos < total;
         pos += static_cast<size_t>(config.clients), ++k) {
      if (config.target_qps > 0.0) {
        const double global_index =
            static_cast<double>(k) * config.clients + client_index;
        const auto send_at =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(global_index /
                                                      config.target_qps));
        std::this_thread::sleep_until(send_at);
      }
      const auto submit_at = Clock::now();
      ++local.arrivals;
      std::future<Prediction> future = service.Submit(stream[pos]);
      // Closed loop: at most one in-flight request per client.
      const Prediction p = future.get();
      RecordDelivered(p, submit_at, stream[pos].target.location,
                      config.track_hits, &local);
    }
    common::MutexLock lock(merge_mu);
    result.e2e_us.Merge(local.e2e_us);
    result.arrivals += local.arrivals;
    result.completed += local.completed;
    result.degraded += local.degraded;
    result.timed_out += local.timed_out;
    result.hits += local.hits;
    result.scored += local.scored;
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(config.clients));
  for (int i = 0; i < config.clients; ++i) threads.emplace_back(client, i);
  for (auto& t : threads) t.join();

  result.wall_seconds = wall.ElapsedSec();
  result.qps = result.wall_seconds > 0.0
                   ? static_cast<double>(result.completed) /
                         result.wall_seconds
                   : 0.0;
  return result;
}

}  // namespace adamove::serve
