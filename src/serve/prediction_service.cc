#include "serve/prediction_service.h"

#include <optional>
#include <utility>

#include "common/check.h"
#include "common/fault_injection.h"
#include "common/timer.h"
#include "nn/tensor.h"

namespace adamove::serve {

namespace {

double ElapsedUs(std::chrono::steady_clock::time_point from,
                 std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Last rung of the encoder degradation ladder: after this many consecutive
/// `serve.encode_forward` faults the worker recomputes locally anyway (the
/// forward is a pure deterministic function, so the local path can always
/// answer) and the request is marked degraded.
constexpr int kMaxEncodeAttempts = 3;

}  // namespace

PredictionService::PredictionService(core::AdaptableModel& model,
                                     SessionStore& store,
                                     const ServiceConfig& config)
    : model_(model),
      store_(store),
      config_(config),
      planner_(model),
      prefix_(store.max_resident_users()) {
  ADAMOVE_CHECK_GT(config_.workers, 0);
  ADAMOVE_CHECK_GT(config_.queue_capacity, 0u);
  if (config_.adapt.mode == AdaptMode::kElastic) {
    ADAMOVE_CHECK_GT(config_.deadline_us, 0);
  }
  worker_stats_.reserve(static_cast<size_t>(config_.workers));
  workers_.reserve(static_cast<size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    worker_stats_.push_back(std::make_unique<WorkerStats>());
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

PredictionService::~PredictionService() { Shutdown(); }

std::future<Prediction> PredictionService::Submit(data::Sample sample) {
  ADAMOVE_CHECK(!sample.recent.empty());
  Request request;
  request.sample = std::move(sample);
  std::future<Prediction> result = request.promise.get_future();
  {
    common::MutexLock lock(mu_);
    while (!stop_ && queue_.size() >= config_.queue_capacity) {
      not_full_.Wait(mu_);
    }
    ADAMOVE_CHECK(!stop_);  // submitting after Shutdown is a bug
    request.enqueue = Clock::now();
    queue_.push_back(std::move(request));
  }
  not_empty_.NotifyOne();
  return result;
}

bool PredictionService::TrySubmit(data::Sample sample,
                                  std::future<Prediction>* out,
                                  std::function<void()> on_complete) {
  ADAMOVE_CHECK(!sample.recent.empty());
  Request request;
  request.sample = std::move(sample);
  request.on_complete = std::move(on_complete);
  std::future<Prediction> result = request.promise.get_future();
  {
    common::MutexLock lock(mu_);
    ADAMOVE_CHECK(!stop_);
    if (queue_.size() >= config_.queue_capacity) {
      shed_requests_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    // Hand the future over *before* the request is queued: once a worker
    // can see the request it may complete it (and fire on_complete) at any
    // moment, and an open-loop caller reads `*out` from that callback.
    if (out != nullptr) *out = std::move(result);
    request.enqueue = Clock::now();
    queue_.push_back(std::move(request));
  }
  not_empty_.NotifyOne();
  return true;
}

void PredictionService::Shutdown() {
  if (warm_thread_.joinable()) warm_thread_.join();
  {
    common::MutexLock lock(mu_);
    if (stop_ && workers_.empty()) return;
    stop_ = true;
  }
  not_empty_.NotifyAll();
  not_full_.NotifyAll();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void PredictionService::WarmStartAsync(const std::string& path) {
  ADAMOVE_CHECK(!warm_thread_.joinable());  // one warm start at a time
  store_.BeginWarmStart();
  warm_thread_ = std::thread([this, path] {
    SnapshotStats stats;
    common::IoResult result = store_.Restore(path, &stats);
    // Gate down only after the restore finished (or failed): requests for
    // not-yet-restored users must keep falling back until the last frame
    // has been adopted, or fresh state could race the snapshot's.
    store_.EndWarmStart();
    common::MutexLock lock(warm_mu_);
    warm_result_ = std::move(result);
    warm_stats_ = stats;
  });
}

common::IoResult PredictionService::WaitWarmStart(SnapshotStats* stats) {
  if (warm_thread_.joinable()) warm_thread_.join();
  common::MutexLock lock(warm_mu_);
  if (stats != nullptr) *stats = warm_stats_;
  return warm_result_;
}

void PredictionService::WorkerLoop(int worker_index) {
  WorkerStats& stats = *worker_stats_[static_cast<size_t>(worker_index)];
  WorkerScratch scratch;
  for (;;) {
    std::optional<Request> request;
    size_t depth = 0;
    {
      common::MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) not_empty_.Wait(mu_);
      if (queue_.empty()) return;  // stop_ set and fully drained
      // The pressure signal is the depth this take sees, this request
      // included: an elastic queue that holds only the request being taken
      // is a backlog of one, not calm.
      depth = queue_.size();
      request.emplace(std::move(queue_.front()));
      queue_.pop_front();
    }
    not_full_.NotifyAll();
    ServeRequest(*request, depth, stats, scratch);
  }
}

void PredictionService::ServeRequest(Request& request, size_t queue_depth,
                                     WorkerStats& stats,
                                     WorkerScratch& scratch) {
  Prediction p;
  p.queue_us = ElapsedUs(request.enqueue, Clock::now());

  // Elastic scheduling (DESIGN.md §16): fold this take's backlog and the
  // request's wait into the pressure gauge, then pick how the adapt stage
  // executes. The `serve.adapt_schedule` fault simulates a scheduler
  // misfire — the request is forced deferred regardless of pressure — and
  // is probed only in elastic mode, so inline services keep their exact
  // fault evaluation sequence (bit-identity with the pre-scheduler path).
  AdaptExecMode exec_mode = AdaptExecMode::kInline;
  if (config_.adapt.mode == AdaptMode::kElastic) {
    // The wait ratio's saturation reference is the request deadline, which
    // the constructor requires of an elastic service.
    gauge_.Update(queue_depth, config_.queue_capacity, p.queue_us,
                  static_cast<double>(config_.deadline_us));
    const bool forced = common::FaultPoint("serve.adapt_schedule");
    exec_mode = gauge_.deferred() || forced ? AdaptExecMode::kDeferred
                                            : AdaptExecMode::kInlineElastic;
  }

  // A flush-path fault (e.g. a corrupted request buffer) degrades this
  // request to the base model rather than failing it.
  const bool flush_degraded = common::FaultPoint("serve.batch_flush");

  // Encode stage (read-only on the shared model). A faulting forward is
  // retried up to kMaxEncodeAttempts times, then recomputed locally and
  // marked degraded.
  //
  // The raw path encodes into this worker's scratch (zero allocations once
  // warm), resuming from the prefix state the encoder user's previous
  // request left; where the encoder has no raw path (DESIGN.md §14) the
  // model walks the graph.
  common::Timer encode_timer;
  bool encode_degraded = false;
  int attempt = 1;
  while (common::FaultPoint("serve.encode_forward")) {
    if (++attempt > kMaxEncodeAttempts) {
      encode_degraded = true;
      break;
    }
  }
  const data::Sample& sample = request.sample;
  core::PlanScratch& plan = scratch.plan;
  nn::Tensor reps;
  SessionStore::RepsView view;
  uint64_t reused_rows = 0;
  if (prefix_.Encode(planner_, sample.recent.front().user, sample, &plan)) {
    view = SessionStore::RepsView(plan.reps.data(), plan.rows, plan.cols);
    reused_rows = static_cast<uint64_t>(plan.reused);
  } else {
    reps = model_.PrefixRepresentations(sample);
    view = SessionStore::RepsView(reps);
  }
  const uint64_t encoded_rows = static_cast<uint64_t>(view.rows) - reused_rows;
  p.encode_us = encode_timer.ElapsedMs() * 1000.0;

  // Adapt stage: a request that can take the adapted path (no missed
  // deadline, not flush-degraded) goes through the store's per-request
  // call — the knowledge-base update under the user's shard lock, the
  // scoring after it. Any other request is answered by the base model.
  common::Timer adapt_timer;
  const bool deadline_missed =
      config_.deadline_us > 0 &&
      Clock::now() >
          request.enqueue + std::chrono::microseconds(config_.deadline_us);
  AdaptStatus status = AdaptStatus::kAdapted;
  BatchAdaptStats adapt_stats;
  if (deadline_missed || flush_degraded) {
    p.scores = store_.PredictFrozen(model_, view);
    p.outcome = deadline_missed ? RequestOutcome::kTimedOut
                                : RequestOutcome::kDegraded;
  } else {
    uint32_t stale_depth = 0;
    status = store_.ObserveAndPredictInto(model_, sample, view, exec_mode,
                                          &scratch.store, &adapt_stats,
                                          &stale_depth);
    // The delivered scores take the scratch's buffer; the next request's
    // scoring regrows it.
    p.scores = std::move(scratch.store.scores);
    // A stale_adapt answer is a valid on-time adapted prediction — kOk,
    // flagged out-of-band (the RequestOutcome-adjacent deferral signal).
    const bool valid_adapt = status == AdaptStatus::kAdapted ||
                             status == AdaptStatus::kStaleAdapt;
    p.outcome = valid_adapt && !encode_degraded ? RequestOutcome::kOk
                                                : RequestOutcome::kDegraded;
    if (status == AdaptStatus::kStaleAdapt) {
      p.stale_adapt = true;
      p.stale_depth = stale_depth;
    }
  }
  p.adapt_us = adapt_timer.ElapsedMs() * 1000.0;

  {
    common::MutexLock lock(stats.mu);
    stats.stats.queue_us.Record(p.queue_us);
    stats.stats.encode_us.Record(p.encode_us);
    stats.stats.adapt_us.Record(p.adapt_us);
    if (p.stale_adapt) {
      stats.stats.stale_adapt_requests += 1;
      stats.stats.stale_depth.Record(static_cast<double>(p.stale_depth));
    }
    if (p.outcome == RequestOutcome::kDegraded) {
      stats.stats.degraded_requests += 1;
      if (status == AdaptStatus::kWarmStartPending) {
        stats.stats.warm_start_fallbacks += 1;
      }
    } else if (p.outcome == RequestOutcome::kTimedOut) {
      stats.stats.timeouts += 1;
    }
    stats.stats.completed += 1;
    stats.stats.batches += 1;
    stats.stats.encoded_rows += encoded_rows;
    stats.stats.reused_rows += reused_rows;
    stats.stats.deferred_ingests += adapt_stats.deferred_ingests;
    stats.stats.coalesced_ingests += adapt_stats.coalesced_ingests;
    stats.stats.lazy_rebuilds += adapt_stats.lazy_rebuilds;
    stats.stats.forced_inline_rebuilds += adapt_stats.forced_inline;
  }
  request.promise.set_value(std::move(p));
  if (request.on_complete) request.on_complete();

  // Background drain: once pressure has subsided, each take retires a few
  // dirty users' pending queues — after the request's promise resolved, so
  // callers never wait on catch-up work. Deferral therefore converges to
  // the inline state even for users who stop sending requests.
  if (config_.adapt.mode == AdaptMode::kElastic && !gauge_.deferred()) {
    const size_t drained = store_.DrainDirtyUsers(kDrainUsersPerTake);
    if (drained > 0) {
      common::MutexLock lock(stats.mu);
      stats.stats.background_drains += drained;
    }
  }
}

ServiceStats PredictionService::Stats() const {
  ServiceStats merged;
  for (const auto& ws : worker_stats_) {
    common::MutexLock lock(ws->mu);
    merged.queue_us.Merge(ws->stats.queue_us);
    merged.encode_us.Merge(ws->stats.encode_us);
    merged.adapt_us.Merge(ws->stats.adapt_us);
    merged.completed += ws->stats.completed;
    merged.batches += ws->stats.batches;
    merged.encoded_rows += ws->stats.encoded_rows;
    merged.reused_rows += ws->stats.reused_rows;
    merged.degraded_requests += ws->stats.degraded_requests;
    merged.warm_start_fallbacks += ws->stats.warm_start_fallbacks;
    merged.timeouts += ws->stats.timeouts;
    merged.stale_adapt_requests += ws->stats.stale_adapt_requests;
    merged.deferred_ingests += ws->stats.deferred_ingests;
    merged.coalesced_ingests += ws->stats.coalesced_ingests;
    merged.lazy_rebuilds += ws->stats.lazy_rebuilds;
    merged.forced_inline_rebuilds += ws->stats.forced_inline_rebuilds;
    merged.background_drains += ws->stats.background_drains;
    merged.stale_depth.Merge(ws->stats.stale_depth);
  }
  merged.adapt_mode_switches = gauge_.mode_switches();
  merged.shed_requests = shed_requests_.load(std::memory_order_relaxed);
  merged.prefix_state_entries = prefix_.entries();
  merged.prefix_state_bytes = prefix_.bytes();
  return merged;
}

}  // namespace adamove::serve
