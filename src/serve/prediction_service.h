#ifndef ADAMOVE_SERVE_PREDICTION_SERVICE_H_
#define ADAMOVE_SERVE_PREDICTION_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/latency_histogram.h"
#include "common/mutex.h"
#include "core/forward_plan.h"
#include "core/model.h"
#include "data/dataset.h"
#include "serve/adapt_scheduler.h"
#include "serve/session_store.h"

namespace adamove::serve {

/// How one request was ultimately answered. Every submitted request ends in
/// exactly one of these states; ServiceStats accounts for all of them.
enum class RequestOutcome : uint8_t {
  /// Fully adapted prediction from fresh per-user state.
  kOk,
  /// A valid real-model prediction produced through a degradation path
  /// (base-model fallback or stale knowledge base) because something on the
  /// adapted path faulted.
  kDegraded,
  /// The per-request deadline expired before adaptation could run; the
  /// base-model fallback was served instead (scores are still valid).
  kTimedOut,
  /// Rejected at admission. Carried by no delivered Prediction: a TrySubmit
  /// that finds the queue full returns false, and the rejection is counted
  /// in ServiceStats::shed_requests.
  kShed,
};

struct ServiceConfig {
  /// Serving worker threads; each takes one queued request at a time and
  /// serves it end to end.
  int workers = 4;
  /// Ignored. A worker takes one request per take (DESIGN.md §4.5), which
  /// is what a micro-batch cap and a batch-formation wait used to shape;
  /// both fields remain only because the frozen benchmark revision assigns
  /// them.
  int max_batch = 8;
  int64_t max_wait_us = 0;
  /// Bounded admission queue: at capacity Submit blocks and TrySubmit
  /// rejects.
  size_t queue_capacity = 1024;
  /// Per-request deadline measured from enqueue (0 = none). A request whose
  /// deadline has passed when its adapt stage would start skips adaptation
  /// and is served the base-model fallback as kTimedOut.
  int64_t deadline_us = 0;
  /// Elastic adaptation scheduling (DESIGN.md §16); the default
  /// AdaptMode::kInline is the legacy bit-identical path. kElastic requires
  /// deadline_us > 0: the deadline is the pressure gauge's wait reference.
  AdaptSchedulerConfig adapt;
};

/// One served prediction plus its per-stage wall-clock breakdown.
struct Prediction {
  std::vector<float> scores;  // real-model scores, one per location
  RequestOutcome outcome = RequestOutcome::kOk;
  /// RequestOutcome-adjacent deferral signal: the answer is a valid adapted
  /// prediction served from slightly stale per-user state (this request's
  /// observations were buffered, the rebuild was the user's cached one).
  /// Orthogonal to `outcome` — a stale_adapt response is still kOk: it was
  /// on time and came from the real adapted model, just not the freshest
  /// state (DESIGN.md §16's deferral rung sits between full adaptation and
  /// the frozen fallback).
  bool stale_adapt = false;
  /// Pending-delta depth the prediction was served at (0 unless
  /// stale_adapt) — below kMaxStaleDepth plus one request's transitions.
  uint32_t stale_depth = 0;
  double queue_us = 0;   // enqueue -> picked up by a worker
  double encode_us = 0;  // this request's encoder forward
  double adapt_us = 0;   // PTTA observe + adapted predict
};

/// Aggregated serving statistics (merged across workers). The availability
/// ledger balances: every submitted request is either delivered with scores
/// (`completed` = ok + degraded_requests + timeouts) or shed.
struct ServiceStats {
  common::LatencyHistogram queue_us;
  common::LatencyHistogram encode_us;
  common::LatencyHistogram adapt_us;
  /// Requests delivered with valid scores (any non-shed outcome).
  uint64_t completed = 0;
  /// Worker takes. A take is one request, so this equals `completed`; it
  /// remains because the frozen benchmark revision reads it.
  uint64_t batches = 0;
  /// Delivered through a degradation path (RequestOutcome::kDegraded).
  uint64_t degraded_requests = 0;
  /// Subset of degraded_requests: answered by the frozen base model because
  /// a warm start was in flight and the user's durable state had not been
  /// restored yet (AdaptStatus::kWarmStartPending).
  uint64_t warm_start_fallbacks = 0;
  /// Delivered past their deadline via the fallback (kTimedOut).
  uint64_t timeouts = 0;
  /// Rejected at admission (kShed) — never received scores.
  uint64_t shed_requests = 0;
  /// Encoder rows this service computed vs rows it copied from a user's
  /// prefix state (DESIGN.md §14, "Prefix state"); their sum is the total
  /// window length of every encoded request.
  uint64_t encoded_rows = 0;
  uint64_t reused_rows = 0;
  /// Prefix-state entries resident when Stats() ran, and their bytes
  /// (PrefixState::Bytes) — memory outside SessionStore::ResidentBytes.
  uint64_t prefix_state_entries = 0;
  uint64_t prefix_state_bytes = 0;
  /// Elastic-adaptation ledger (DESIGN.md §16; all zero on an inline-mode
  /// service): requests answered from deferred (stale) state, transitions
  /// buffered instead of ingested, buffered deltas dropped by exact
  /// coalescing, pending queues drained by an inline predict, deferred
  /// requests forced inline by the kMaxStaleDepth bound, and users drained
  /// in the background once pressure subsided.
  uint64_t stale_adapt_requests = 0;
  uint64_t deferred_ingests = 0;
  uint64_t coalesced_ingests = 0;
  uint64_t lazy_rebuilds = 0;
  uint64_t forced_inline_rebuilds = 0;
  uint64_t background_drains = 0;
  /// Pressure-gauge inline<->deferred transitions (hysteresis crossings).
  uint64_t adapt_mode_switches = 0;
  /// Staleness depth distribution: one sample per stale_adapt request,
  /// valued at the pending-delta depth it was served at. (The histogram is
  /// log-bucketed for latencies but exact in count/sum/max, which is what
  /// the bounded-staleness gate reads.)
  common::LatencyHistogram stale_depth;
  /// Fully adapted, on-time responses.
  uint64_t ok_requests() const {
    return completed - degraded_requests - timeouts;
  }
  /// Every request the service has accounted for, in any state.
  uint64_t accounted() const { return completed + shed_requests; }
};

/// The online request path: a bounded queue feeding worker threads. A
/// worker takes one queued request as soon as it is free and serves it end
/// to end, so a burst spreads over every idle worker instead of queueing
/// behind one (DESIGN.md §4.5). It first encodes the request, resuming the
/// encoder from the state the same user's previous request left (the prefix
/// state, DESIGN.md §14: an extended window runs only its new points, an
/// exact repeat none), then adapts it through
/// SessionStore::ObserveAndPredictInto: the user's knowledge-base update
/// and rebuild collect run under its shard lock, and the scoring runs after
/// the lock is released, into the worker's scratch.
///
/// Failure semantics (DESIGN.md §9): the service never crashes on an armed
/// fault and never fabricates scores. Faults on the adapted path (session
/// lookup, pattern generation, the take's flush) degrade the affected
/// request to the base model's frozen logits; encoder faults are retried a
/// bounded number of times before the local deterministic recompute; deadline
/// overruns skip adaptation and serve the fallback as kTimedOut; a full
/// queue blocks Submit and rejects TrySubmit. Every request lands in
/// exactly one RequestOutcome and ServiceStats balances: submitted =
/// completed + shed. With no fault points armed the instrumented path is
/// bit-identical to the pre-fault-layer service.
///
/// Concurrency contract: the model is only ever *read* after construction
/// (inference forwards build no autograd tape and draw no RNG — dropout is
/// identity outside training), so any number of workers share it without
/// synchronization. All mutable state lives in the SessionStore shards.
class PredictionService {
 public:
  /// Checks `config` (positive workers and queue_capacity; a deadline when
  /// adapt.mode is kElastic) before any worker starts.
  PredictionService(core::AdaptableModel& model, SessionStore& store,
                    const ServiceConfig& config);

  /// Drains the queue and joins workers; every submitted future resolves.
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Enqueues one request, blocking while the queue is at capacity.
  /// sample.recent must be non-empty.
  std::future<Prediction> Submit(data::Sample sample);

  /// Non-blocking variant: false (and no enqueue) when the queue is full;
  /// the rejection is counted in ServiceStats::shed_requests. On success
  /// `*out` is assigned *before* the request becomes visible to workers, so
  /// an `on_complete` that reads the future through shared state cannot
  /// race the assignment (the open-loop LoadGen leans on this).
  /// `on_complete`, when set, runs exactly once in the worker, after the
  /// request has been accounted in Stats() and its promise fulfilled. On
  /// false, `*out` is untouched and `on_complete` never fires.
  bool TrySubmit(data::Sample sample, std::future<Prediction>* out,
                 std::function<void()> on_complete = nullptr);

  /// Stops accepting requests, drains the queue, joins workers (including
  /// an in-flight warm-start restore). Idempotent; also run by the
  /// destructor.
  void Shutdown();

  /// Begins restoring serving state from a snapshot at `path` in a
  /// background thread while the service keeps answering: users whose
  /// frames have already landed get the adapted path, everyone else is
  /// served the frozen base model as kDegraded (counted in
  /// warm_start_fallbacks) until their state arrives — the degradation
  /// ladder's warm-start rung (DESIGN.md §11). At most one warm start may
  /// be in flight.
  void WarmStartAsync(const std::string& path);

  /// Blocks until the warm start launched by WarmStartAsync finishes and
  /// returns its IoResult (restore accounting via `stats`). Ok with no
  /// warm start in flight.
  common::IoResult WaitWarmStart(SnapshotStats* stats = nullptr);

  /// Per-stage latency distributions merged across workers. Safe to call
  /// concurrently with serving (workers guard their stats with a mutex).
  ServiceStats Stats() const;

  /// Retires every user's prefix state — the checkpoint hot-swap hook:
  /// call after overwriting model weights, in place or not, so the next
  /// request re-encodes whole windows. (A swap that *reallocates* tensor
  /// storage is also caught per use by the planner's storage check; an
  /// in-place overwrite is caught only by this call.)
  void InvalidatePlans() {
    planner_.InvalidateAll();
    prefix_.Clear();
  }

  /// The encode route of this service's model: kPlan whenever its encoder
  /// has a raw path, else kGraph (DESIGN.md §14).
  core::ForwardMode forward_mode() const {
    return planner_.has_raw_path() ? core::ForwardMode::kPlan
                                   : core::ForwardMode::kGraph;
  }

  /// This service's adaptation schedule (ServiceConfig::adapt).
  const AdaptSchedulerConfig& adapt_config() const { return config_.adapt; }

  const ServiceConfig& config() const { return config_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    data::Sample sample;
    std::promise<Prediction> promise;
    Clock::time_point enqueue;
    /// Fired exactly once, after the promise is fulfilled (may be empty).
    std::function<void()> on_complete;
  };

  /// Per-worker stage histograms; merged on demand by Stats().
  struct WorkerStats {
    mutable common::Mutex mu;
    ServiceStats stats ADAMOVE_GUARDED_BY(mu);
  };

  /// Per-worker scratch: the raw encode's buffers and the store call's, so
  /// a warm worker's encode and adapt reuse their capacity.
  struct WorkerScratch {
    core::PlanScratch plan;
    SessionStore::RequestScratch store;
  };

  void WorkerLoop(int worker_index);
  /// Serves one taken request. `queue_depth` is the admission-queue size
  /// the take saw, this request included — the gauge's backlog signal
  /// (DESIGN.md §16).
  void ServeRequest(Request& request, size_t queue_depth, WorkerStats& stats,
                    WorkerScratch& scratch);

  core::AdaptableModel& model_;
  SessionStore& store_;
  ServiceConfig config_;
  /// The per-service pressure signal driving elastic scheduling.
  PressureGauge gauge_;
  /// The raw encode path, shared by all workers (thread-safe).
  core::ForwardPlanner planner_;
  /// Every user's encoder prefix state, keyed by the encoder's own input
  /// user (sample.recent.front().user) and bounded by the store's
  /// residency cap.
  core::PrefixCache prefix_;

  common::Mutex mu_;
  common::CondVar not_empty_;
  common::CondVar not_full_;
  std::deque<Request> queue_ ADAMOVE_GUARDED_BY(mu_);
  bool stop_ ADAMOVE_GUARDED_BY(mu_) = false;

  /// Admission-side rejections (kShed); workers never touch this.
  std::atomic<uint64_t> shed_requests_{0};

  std::vector<std::unique_ptr<WorkerStats>> worker_stats_;
  std::vector<std::thread> workers_;

  /// Warm-start restore thread plus its outcome (read by WaitWarmStart).
  std::thread warm_thread_;
  mutable common::Mutex warm_mu_;
  common::IoResult warm_result_ ADAMOVE_GUARDED_BY(warm_mu_);
  SnapshotStats warm_stats_ ADAMOVE_GUARDED_BY(warm_mu_);
};

}  // namespace adamove::serve

#endif  // ADAMOVE_SERVE_PREDICTION_SERVICE_H_
