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

/// What the service does when a request arrives and the admission queue is
/// already at capacity.
enum class OverflowPolicy : uint8_t {
  /// Submit blocks until space frees up (backpressure onto the caller).
  kBlock,
  /// Submit resolves the request immediately as shed (no scores) — the
  /// load-shedding posture for callers that prefer fast failure to queueing.
  kShed,
};

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
  /// Rejected at admission (queue full under OverflowPolicy::kShed, or a
  /// TrySubmit that returned false). No scores.
  kShed,
};

struct ServiceConfig {
  /// Serving worker threads; each forms and executes whole micro-batches.
  int workers = 4;
  /// Flush a micro-batch at this many requests…
  int max_batch = 8;
  /// …or when the oldest queued request has waited this long, whichever
  /// comes first (the classic size-or-deadline policy).
  int64_t max_wait_us = 1000;
  /// Bounded admission queue; `overflow` picks what happens at capacity.
  size_t queue_capacity = 1024;
  OverflowPolicy overflow = OverflowPolicy::kBlock;
  /// Per-request deadline measured from enqueue (0 = none). A request whose
  /// deadline has passed when its adapt stage would start skips adaptation
  /// and is served the base-model fallback as kTimedOut.
  int64_t deadline_us = 0;
  /// Elastic adaptation scheduling (DESIGN.md §16). Resolved at service
  /// construction against the ADAMOVE_ADAPT_* environment knobs; the
  /// default resolves to AdaptMode::kInline, the legacy bit-identical path.
  AdaptSchedulerConfig adapt;
};

/// One served prediction plus its per-stage wall-clock breakdown.
struct Prediction {
  std::vector<float> scores;  // empty iff outcome == kShed
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
  /// stale_adapt) — bounded by the scheduler's max_stale knob.
  uint32_t stale_depth = 0;
  double queue_us = 0;   // enqueue -> picked up by a worker
  double encode_us = 0;  // encoder forward (share of the batched stage)
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
  /// Compiled plans the static verifier rejected (DESIGN.md §15): the
  /// tracer produced a plan that failed an IR invariant (SSA, shape,
  /// lifetime, or arena proof), so it was never executed and the graph
  /// walk serves that sequence length instead. Any non-zero value is a
  /// compiler bug made visible — the requests themselves stay correct
  /// (and kOk), they just are not allocation-free.
  uint64_t plan_verify_rejects = 0;
  /// Elastic-adaptation ledger (DESIGN.md §16; all zero on an inline-mode
  /// service): requests answered from deferred (stale) state, transitions
  /// buffered instead of ingested, buffered deltas dropped by exact
  /// coalescing, pending queues drained by an inline predict, deferred
  /// requests forced inline by the max_stale bound, and users drained in
  /// the background once pressure subsided.
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
  double MeanBatchSize() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(completed) /
                              static_cast<double>(batches);
  }
};

/// The online request path: a bounded queue feeding worker threads that
/// flush dynamic micro-batches (on max_batch or max_wait_us). A batch runs
/// the encoder forwards back-to-back — one cache-warm pass over the model
/// weights instead of interleaving them with per-request adapter work —
/// then the PTTA adjustment for the whole batch goes through
/// SessionStore::BatchObserveAndPredictEncoded: per-user knowledge-base
/// updates still run in request order under their shard locks (per-user
/// state semantics are preserved exactly), but the adjusted-column rebuilds
/// are collected into one flat pattern arena and scored in a single
/// lock-free vectorized sweep.
///
/// Failure semantics (DESIGN.md §9): the service never crashes on an armed
/// fault and never fabricates scores. Faults on the adapted path (session
/// lookup, pattern generation, batch flush) degrade the affected requests
/// to the base model's frozen logits; encoder faults are retried a bounded
/// number of times before the local deterministic recompute; deadline
/// overruns skip adaptation and serve the fallback as kTimedOut; queue
/// overflow sheds or blocks per OverflowPolicy. Every request lands in
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
  PredictionService(core::AdaptableModel& model, SessionStore& store,
                    const ServiceConfig& config);

  /// Drains the queue and joins workers; every submitted future resolves.
  ~PredictionService();

  PredictionService(const PredictionService&) = delete;
  PredictionService& operator=(const PredictionService&) = delete;

  /// Enqueues one request. At capacity, blocks (OverflowPolicy::kBlock) or
  /// resolves the returned future immediately as kShed (kShed policy).
  /// sample.recent must be non-empty. `on_complete`, when set, runs exactly
  /// once after the request has been accounted and its promise fulfilled —
  /// in the worker for served requests, in the caller for shed ones. The
  /// shard layer hangs its drain barrier off this hook (every per-request
  /// state effect has happened by the time it fires).
  std::future<Prediction> Submit(data::Sample sample,
                                 std::function<void()> on_complete = nullptr);

  /// Non-blocking variant: false (and no enqueue) when the queue is full;
  /// the rejection is counted in ServiceStats::shed_requests. On success
  /// `*out` is assigned *before* the request becomes visible to workers, so
  /// an `on_complete` that reads the future through shared state cannot
  /// race the assignment (the open-loop LoadGen leans on this). On false,
  /// `*out` is untouched and `on_complete` never fires.
  bool TrySubmit(data::Sample sample, std::future<Prediction>* out,
                 std::function<void()> on_complete = nullptr);

  /// Frozen-only admission: the request flows through the normal queue and
  /// encode stage, but the adapt stage is skipped — the frozen base model
  /// answers and the request is accounted kDegraded. No per-user state is
  /// read or written, which is the property the shard layer leans on: a
  /// user whose state is mid-migration (or a mis-routed request under the
  /// `serve.router_lookup` fault) gets a valid real-model answer without
  /// forking state on the wrong shard group (DESIGN.md §12). `on_complete`
  /// as in Submit.
  std::future<Prediction> SubmitFrozen(
      data::Sample sample, std::function<void()> on_complete = nullptr);

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

  /// Drops every cached forward plan — the checkpoint hot-swap hook: call
  /// after overwriting model weights so the next request re-traces against
  /// the new storage. (Plans are also revalidated per use against a
  /// weight-pointer fingerprint, so a swap that *reallocates* tensor
  /// storage is caught even without this call; an in-place overwrite keeps
  /// plans valid and needs neither.)
  void InvalidatePlans() { planner_.InvalidateAll(); }

  /// The encode route of this service's model: kPlan whenever the planner
  /// compiles its encoder family, else kGraph (DESIGN.md §14).
  core::ForwardMode forward_mode() const {
    return planner_.traceable() ? core::ForwardMode::kPlan
                                : core::ForwardMode::kGraph;
  }

  /// The service's plan cache (compile and verify counters).
  const core::ForwardPlanner& planner() const { return planner_; }

  /// The adaptation schedule this service resolved at construction
  /// (ADAMOVE_ADAPT_* applied, kAuto replaced by a concrete mode).
  const AdaptSchedulerConfig& adapt_config() const { return adapt_config_; }

  /// Whether the pressure gauge currently schedules adaptation deferred
  /// (always false outside AdaptMode::kElastic unless forced).
  bool adapt_deferred() const { return gauge_.deferred(); }

  /// Current smoothed queue pressure (diagnostics).
  double adapt_pressure() const { return gauge_.pressure(); }

  const ServiceConfig& config() const { return config_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    data::Sample sample;
    std::promise<Prediction> promise;
    Clock::time_point enqueue;
    /// SubmitFrozen admission: skip the adapt stage, answer frozen.
    bool frozen_only = false;
    /// Fired exactly once, after the promise is fulfilled (may be empty).
    std::function<void()> on_complete;
  };

  std::future<Prediction> SubmitInternal(data::Sample sample,
                                         bool frozen_only,
                                         std::function<void()> on_complete);

  /// Per-worker stage histograms; merged on demand by Stats().
  struct WorkerStats {
    mutable common::Mutex mu;
    ServiceStats stats ADAMOVE_GUARDED_BY(mu);
  };

  /// Per-worker encode scratch: one PlanScratch per batch slot, so a
  /// worker's steady-state plan encodes reuse arena/vector capacity and
  /// allocate nothing.
  struct WorkerScratch {
    std::vector<core::PlanScratch> plan;
  };

  void WorkerLoop(int worker_index);
  /// `queue_depth` is the admission-queue size observed right after this
  /// batch was extracted — the gauge's backlog signal.
  void ProcessBatch(std::vector<Request>& batch, size_t queue_depth,
                    WorkerStats& stats, WorkerScratch& scratch);

  core::AdaptableModel& model_;
  SessionStore& store_;
  ServiceConfig config_;
  /// Resolved adaptation schedule (ServiceConfig::adapt + ADAMOVE_ADAPT_*).
  AdaptSchedulerConfig adapt_config_;
  /// The per-service pressure signal driving elastic scheduling.
  PressureGauge gauge_;
  /// Service-owned plan cache, shared by all workers (thread-safe; keyed by
  /// sequence length, revalidated against the live weights per use).
  core::ForwardPlanner planner_;

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
