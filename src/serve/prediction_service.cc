#include "serve/prediction_service.h"

#include <algorithm>
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
      adapt_config_(config.adapt.Resolve()),
      gauge_(adapt_config_),
      planner_(model) {
  ADAMOVE_CHECK_GT(config_.workers, 0);
  ADAMOVE_CHECK_GT(config_.max_batch, 0);
  ADAMOVE_CHECK_GT(config_.queue_capacity, 0u);
  worker_stats_.reserve(static_cast<size_t>(config_.workers));
  workers_.reserve(static_cast<size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    worker_stats_.push_back(std::make_unique<WorkerStats>());
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

PredictionService::~PredictionService() { Shutdown(); }

std::future<Prediction> PredictionService::Submit(
    data::Sample sample, std::function<void()> on_complete) {
  return SubmitInternal(std::move(sample), /*frozen_only=*/false,
                        std::move(on_complete));
}

std::future<Prediction> PredictionService::SubmitFrozen(
    data::Sample sample, std::function<void()> on_complete) {
  return SubmitInternal(std::move(sample), /*frozen_only=*/true,
                        std::move(on_complete));
}

std::future<Prediction> PredictionService::SubmitInternal(
    data::Sample sample, bool frozen_only,
    std::function<void()> on_complete) {
  ADAMOVE_CHECK(!sample.recent.empty());
  Request request;
  request.sample = std::move(sample);
  request.frozen_only = frozen_only;
  request.on_complete = std::move(on_complete);
  std::future<Prediction> result = request.promise.get_future();
  bool shed = false;
  {
    common::MutexLock lock(mu_);
    if (config_.overflow == OverflowPolicy::kShed) {
      ADAMOVE_CHECK(!stop_);  // submitting after Shutdown is a bug
      shed = queue_.size() >= config_.queue_capacity;
    } else {
      while (!stop_ && queue_.size() >= config_.queue_capacity) {
        not_full_.Wait(mu_);
      }
      ADAMOVE_CHECK(!stop_);
    }
    if (!shed) {
      request.enqueue = Clock::now();
      queue_.push_back(std::move(request));
    }
  }
  if (shed) {
    shed_requests_.fetch_add(1, std::memory_order_relaxed);
    Prediction rejected;
    rejected.outcome = RequestOutcome::kShed;
    request.promise.set_value(std::move(rejected));
    if (request.on_complete) request.on_complete();
    return result;
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
    std::vector<Request> batch;
    size_t depth = 0;
    {
      common::MutexLock lock(mu_);
      while (!stop_ && queue_.empty()) not_empty_.Wait(mu_);
      if (queue_.empty()) return;  // stop_ set and fully drained
      // Dynamic flush: grow the batch until max_batch requests are queued
      // or the *oldest* request's deadline passes — whichever comes first.
      const auto deadline =
          queue_.front().enqueue +
          std::chrono::microseconds(config_.max_wait_us);
      while (static_cast<int>(queue_.size()) < config_.max_batch && !stop_) {
        if (not_empty_.WaitUntil(mu_, deadline) == std::cv_status::timeout) {
          break;
        }
        if (queue_.empty()) break;  // another worker flushed it first
      }
      if (queue_.empty()) continue;
      // The pressure signal is the depth at batch formation — including the
      // batch being taken. Measuring only the leftover would read a full
      // queue as calm whenever max_batch can swallow it in one take (small
      // elastic queues do exactly that), hiding genuine saturation.
      depth = queue_.size();
      const size_t take = std::min(
          queue_.size(), static_cast<size_t>(config_.max_batch));
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    not_full_.NotifyAll();
    ProcessBatch(batch, depth, stats, scratch);
  }
}

void PredictionService::ProcessBatch(std::vector<Request>& batch,
                                     size_t queue_depth, WorkerStats& stats,
                                     WorkerScratch& scratch) {
  const auto picked_up = Clock::now();
  std::vector<Prediction> out(batch.size());

  // Elastic scheduling (DESIGN.md §16): fold this batch's backlog and the
  // oldest request's wait into the pressure gauge, then pick how the adapt
  // stage executes. The `serve.adapt_schedule` fault simulates a scheduler
  // misfire — the batch is forced deferred regardless of pressure — and is
  // probed only in elastic mode, so inline services keep their exact fault
  // evaluation sequence (bit-identity with the pre-scheduler path).
  AdaptExecMode exec_mode = AdaptExecMode::kInline;
  if (adapt_config_.mode == AdaptMode::kElastic) {
    const double oldest_wait_us = ElapsedUs(batch.front().enqueue, picked_up);
    // Saturation reference for the wait ratio: the request deadline when one
    // is configured, else several flush windows' worth of queueing.
    const double slack_ref_us =
        config_.deadline_us > 0
            ? static_cast<double>(config_.deadline_us)
            : 4.0 * static_cast<double>(config_.max_wait_us);
    gauge_.Update(queue_depth, config_.queue_capacity, oldest_wait_us,
                  slack_ref_us);
    const bool forced = common::FaultPoint("serve.adapt_schedule");
    exec_mode = gauge_.deferred() || forced ? AdaptExecMode::kDeferred
                                            : AdaptExecMode::kInlineElastic;
  } else if (adapt_config_.mode == AdaptMode::kDeferredAlways) {
    exec_mode = AdaptExecMode::kDeferred;
  }

  // A flush-path fault (e.g. a corrupted batch buffer) degrades the whole
  // batch to the base model rather than failing any request.
  const bool batch_degraded = common::FaultPoint("serve.batch_flush");

  // Encode stage: all forward passes of the batch back-to-back (read-only
  // on the shared model; per-request share timed individually so the
  // histogram stays per-request). A faulting forward is retried up to
  // kMaxEncodeAttempts times, then recomputed locally and marked degraded.
  //
  // A compiled plan encodes into this worker's scratch slot (zero
  // allocations once warm); where the planner has no plan (DESIGN.md §14)
  // the model walks the graph.
  std::vector<nn::Tensor> reps(batch.size());
  std::vector<SessionStore::RepsView> views(batch.size());
  std::vector<char> encode_degraded(batch.size(), 0);
  if (scratch.plan.size() < batch.size()) scratch.plan.resize(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    common::Timer timer;
    int attempt = 1;
    while (common::FaultPoint("serve.encode_forward")) {
      if (++attempt > kMaxEncodeAttempts) {
        encode_degraded[i] = 1;
        break;
      }
    }
    core::PlanScratch& slot = scratch.plan[i];
    if (planner_.EncodeInto(batch[i].sample, &slot)) {
      views[i] = SessionStore::RepsView(slot.reps.data(), slot.rows, slot.cols);
    } else {
      reps[i] = model_.PrefixRepresentations(batch[i].sample);
      views[i] = SessionStore::RepsView(reps[i]);
    }
    out[i].encode_us = timer.ElapsedMs() * 1000.0;
    out[i].queue_us = ElapsedUs(batch[i].enqueue, picked_up);
  }

  // Adapt stage: requests that can take the adapted path (no missed
  // deadline, batch not degraded, not frozen-only) go through the store's
  // batched API — per-user knowledge-base updates run per shard lock, then
  // every rebuild is scored in one contiguous vectorized sweep over the
  // batch's flat pattern arena. The rest fall back to the base model
  // immediately. Per-request adapt_us is the stage's cost split evenly
  // across its adapted requests (the sweep is genuinely joint work).
  const auto deadline_budget = std::chrono::microseconds(config_.deadline_us);
  std::vector<char> warm_fallback(batch.size(), 0);
  std::vector<size_t> adapted;  // indices routed to the batched store call
  adapted.reserve(batch.size());
  std::vector<SessionStore::BatchRequest> store_batch;
  store_batch.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    common::Timer timer;
    Prediction& p = out[i];
    const bool deadline_missed =
        config_.deadline_us > 0 &&
        Clock::now() > batch[i].enqueue + deadline_budget;
    if (deadline_missed || batch_degraded || batch[i].frozen_only) {
      p.scores = store_.PredictFrozen(model_, views[i]);
      p.outcome = deadline_missed ? RequestOutcome::kTimedOut
                                  : RequestOutcome::kDegraded;
      p.adapt_us = timer.ElapsedMs() * 1000.0;
    } else {
      adapted.push_back(i);
      SessionStore::BatchRequest request;
      request.sample = &batch[i].sample;
      request.reps = views[i];
      store_batch.push_back(request);
    }
  }
  BatchAdaptStats adapt_stats;
  if (!adapted.empty()) {
    common::Timer timer;
    BatchAdaptOptions options;
    options.mode = exec_mode;
    options.max_stale = adapt_config_.max_stale;
    std::vector<AdaptStatus> statuses;
    std::vector<std::vector<float>> scores =
        store_.BatchObserveAndPredictEncoded(model_, store_batch, options,
                                             &statuses, &adapt_stats);
    const double per_request_us =
        timer.ElapsedMs() * 1000.0 / static_cast<double>(adapted.size());
    for (size_t a = 0; a < adapted.size(); ++a) {
      const size_t i = adapted[a];
      Prediction& p = out[i];
      p.scores = std::move(scores[a]);
      // A stale_adapt answer is a valid on-time adapted prediction — kOk,
      // flagged out-of-band (the RequestOutcome-adjacent deferral signal).
      const bool valid_adapt = statuses[a] == AdaptStatus::kAdapted ||
                               statuses[a] == AdaptStatus::kStaleAdapt;
      p.outcome = valid_adapt && encode_degraded[i] == 0
                      ? RequestOutcome::kOk
                      : RequestOutcome::kDegraded;
      if (statuses[a] == AdaptStatus::kStaleAdapt) {
        p.stale_adapt = true;
        p.stale_depth = adapt_stats.stale_depth[a];
      }
      if (statuses[a] == AdaptStatus::kWarmStartPending) warm_fallback[i] = 1;
      p.adapt_us = per_request_us;
    }
  }

  {
    common::MutexLock lock(stats.mu);
    for (size_t i = 0; i < out.size(); ++i) {
      const Prediction& p = out[i];
      stats.stats.queue_us.Record(p.queue_us);
      stats.stats.encode_us.Record(p.encode_us);
      stats.stats.adapt_us.Record(p.adapt_us);
      if (p.stale_adapt) {
        stats.stats.stale_adapt_requests += 1;
        stats.stats.stale_depth.Record(static_cast<double>(p.stale_depth));
      }
      if (p.outcome == RequestOutcome::kDegraded) {
        stats.stats.degraded_requests += 1;
        if (warm_fallback[i] != 0) stats.stats.warm_start_fallbacks += 1;
      } else if (p.outcome == RequestOutcome::kTimedOut) {
        stats.stats.timeouts += 1;
      }
    }
    stats.stats.completed += batch.size();
    stats.stats.batches += 1;
    stats.stats.deferred_ingests += adapt_stats.deferred_ingests;
    stats.stats.coalesced_ingests += adapt_stats.coalesced_ingests;
    stats.stats.lazy_rebuilds += adapt_stats.lazy_rebuilds;
    stats.stats.forced_inline_rebuilds += adapt_stats.forced_inline;
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].promise.set_value(std::move(out[i]));
    if (batch[i].on_complete) batch[i].on_complete();
  }

  // Background drain: once pressure has subsided, each batch retires a few
  // dirty users' pending queues — after the batch's promises resolved, so
  // callers never wait on catch-up work. Deferral therefore converges to
  // the inline state even for users who stop sending requests.
  if (adapt_config_.mode == AdaptMode::kElastic &&
      adapt_config_.drain_users_per_batch > 0 && !gauge_.deferred()) {
    const size_t drained =
        store_.DrainDirtyUsers(adapt_config_.drain_users_per_batch);
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
  merged.plan_verify_rejects =
      static_cast<uint64_t>(planner_.verify_rejects());
  return merged;
}

}  // namespace adamove::serve
