#ifndef ADAMOVE_SERVE_LOAD_GEN_H_
#define ADAMOVE_SERVE_LOAD_GEN_H_

#include <cstdint>
#include <vector>

#include "common/latency_histogram.h"
#include "data/dataset.h"
#include "serve/prediction_service.h"

namespace adamove::serve {

struct LoadGenConfig {
  /// Offered load across all clients; 0 = closed-loop maximum speed (each
  /// client fires its next request the moment the previous one resolves).
  double target_qps = 0.0;
  /// Concurrent closed-loop client threads. Client i replays stream
  /// positions i, i + clients, i + 2·clients, … so one user's check-ins
  /// stay in order whenever the stream is per-user ordered and clients = 1.
  int clients = 8;
  /// Stop after this many requests (0 = one full pass over the stream).
  size_t max_requests = 0;
  /// True open-loop arrivals (requires target_qps > 0): a client fires each
  /// request at its scheduled instant whether or not earlier ones resolved,
  /// so offered load is genuinely uncapped by service throughput — the only
  /// bound is `max_in_flight`. This is what makes overload reachable: a
  /// closed loop self-throttles to the service's capacity by construction.
  bool open_loop = false;
  /// Open loop only: arrivals finding this many requests outstanding are
  /// dropped at the source and counted exactly (dropped_arrivals), so
  /// memory stays bounded without hiding the overload.
  size_t max_in_flight = 4096;
  /// Score each delivered prediction against its sample's true next
  /// location (hit@1) — the accuracy axis of the accuracy-vs-QPS frontier.
  bool track_hits = false;
};

struct LoadGenResult {
  /// Scheduled arrival attempts. Balance (both loop shapes):
  /// arrivals == completed + shed + dropped_arrivals.
  size_t arrivals = 0;
  /// Requests delivered with scores (outcome ok / degraded / timed out).
  size_t completed = 0;
  /// Per-outcome tallies of the delivered requests.
  size_t degraded = 0;
  size_t timed_out = 0;
  /// Open loop only: rejected by TrySubmit (queue full), shed at admission.
  /// The closed loop's blocking Submit never sheds.
  size_t shed = 0;
  /// Open loop only: dropped at the generator's own in-flight limit —
  /// never submitted, never seen by the service.
  size_t dropped_arrivals = 0;
  /// Delivered from deferred (stale) adapter state (Prediction::stale_adapt).
  size_t stale_adapt = 0;
  /// Maximum staleness depth observed across delivered requests.
  uint32_t max_stale_depth = 0;
  /// hit@1 accounting (track_hits only): delivered requests whose argmax
  /// score matched the true next location, over those scored.
  size_t hits = 0;
  size_t scored = 0;
  double wall_seconds = 0.0;
  double qps = 0.0;
  /// End-to-end (submit -> future resolved) latency per delivered request
  /// (shed requests never resolve and are excluded).
  common::LatencyHistogram e2e_us;
};

/// Replays a check-in stream against a PredictionService and measures
/// throughput + tail latency from the caller's side.
///
/// Closed loop (default): a client never has more than one request in
/// flight, so offered concurrency equals `clients` and the service's queue
/// cannot grow without bound. With target_qps > 0 each client paces itself
/// on a steady_clock schedule (sleep-until-send), i.e. open-loop arrival
/// *times* capped by closed-loop concurrency.
///
/// Open loop (config.open_loop, target_qps > 0): arrivals fire on schedule
/// regardless of completions (TrySubmit + completion callback), bounded
/// only by max_in_flight, with exact shed / drop accounting — the overload
/// harness for the elastic-adaptation bench and chaos tests.
LoadGenResult RunLoadGen(PredictionService& service,
                         const std::vector<data::Sample>& stream,
                         const LoadGenConfig& config);

/// Builds the serving replay stream from a dataset split: samples ordered
/// by target timestamp (global arrival order), repeated in whole passes
/// until at least `min_requests` entries exist (0 = a single pass).
std::vector<data::Sample> BuildReplayStream(
    const std::vector<data::Sample>& samples, size_t min_requests);

}  // namespace adamove::serve

#endif  // ADAMOVE_SERVE_LOAD_GEN_H_
