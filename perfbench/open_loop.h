#ifndef ADAMOVE_PERFBENCH_OPEN_LOOP_H_
#define ADAMOVE_PERFBENCH_OPEN_LOOP_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <vector>

#include "data/dataset.h"
#include "serve/prediction_service.h"

namespace adamove::perfbench {

class SpanRecorder;

/// Nanoseconds on std::chrono::steady_clock.
int64_t NowNs();

/// One scheduled arrival of an open-loop phase. Preallocated before the
/// phase starts, so the generator never allocates a record while it runs.
struct RequestRecord {
  enum class State : uint8_t { kPending, kDropped, kShed, kDelivered };

  /// Filled by TrySubmit before the request becomes visible to workers.
  std::future<serve::Prediction> future;
  int64_t due_ns = 0;        // when the schedule says it is sent
  int64_t sent_ns = 0;       // when the generator reached it
  int64_t submitted_ns = 0;  // when TrySubmit returned
  int64_t done_ns = 0;       // when on_complete fired
  std::atomic<State> state{State::kPending};
  /// Due in a traced window (see RunOpenLoop).
  bool traced = false;
  serve::RequestOutcome outcome = serve::RequestOutcome::kOk;
  bool stale = false;
  /// Scores sized num_locations and all finite.
  bool valid = false;
  /// Argmax of the scores is the sample's true next location.
  bool hit = false;
  uint32_t stale_depth = 0;
  float queue_us = 0;
  float encode_us = 0;
  float adapt_us = 0;

  int64_t LatencyNs() const { return done_ns - due_ns; }
};

/// The arrival schedule: every second starts with `burst_s` seconds at
/// `burst_qps`, then runs at `rate_qps` (no bursts when burst_s is 0).
struct OpenLoopConfig {
  double rate_qps = 1000.0;
  double burst_qps = 0.0;
  double burst_s = 0.0;
  double seconds = 10.0;
};

struct OpenLoopResult {
  std::vector<RequestRecord> records;
  int64_t start_ns = 0;  // due time of record 0
  /// Completion of the last request to complete.
  int64_t end_ns = 0;
  /// Every outstanding request completed before the drain timeout.
  bool drained = false;
  uint64_t arrivals = 0;
  uint64_t delivered = 0;
  uint64_t shed = 0;
  uint64_t dropped = 0;
};

/// Replays `stream` (cycling, from `stream_offset`) against `service` on the
/// calling thread as an open loop: each request is sent at its scheduled
/// due time whether or not earlier requests have completed. Each
/// request is timed from its due time, so a stall in the generator or the
/// service is charged to the requests it delays. `num_locations` sizes the
/// score check.
///
/// With `spans` set (the traced run), requests due in the odd seconds of
/// the phase are traced: the generator records their spans between sends
/// as they finish. The even seconds run untraced in the same phase, so the
/// two halves compare the tracing cost under the same load and state.
///
/// Arrivals that find 4,096 requests outstanding are dropped at the
/// generator and never reach the service; a phase whose requests have not
/// all completed 20 s after its last arrival is not `drained`.
///
/// Ledger: arrivals == delivered + shed + dropped once `drained` is true.
OpenLoopResult RunOpenLoop(serve::PredictionService& service,
                           const std::vector<data::Sample>& stream,
                           size_t stream_offset, int64_t num_locations,
                           const OpenLoopConfig& config, SpanRecorder* spans);

}  // namespace adamove::perfbench

#endif  // ADAMOVE_PERFBENCH_OPEN_LOOP_H_
