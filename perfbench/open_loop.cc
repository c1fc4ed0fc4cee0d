#include "open_loop.h"

#include <chrono>
#include <cmath>
#include <memory>
#include <thread>
#include <utility>

#include "trace.h"

namespace adamove::perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

using State = RequestRecord::State;

constexpr int64_t kMaxInFlight = 4096;
constexpr int64_t kDrainTimeoutNs = 20'000'000'000;

/// Completion hook: runs in the serving worker after the promise is set.
/// The timestamp is taken first, so the checks below are not charged to
/// this request's latency.
void Complete(RequestRecord* rec, int64_t num_locations, int64_t target) {
  rec->done_ns = NowNs();
  serve::Prediction p = rec->future.get();
  rec->outcome = p.outcome;
  rec->stale = p.stale_adapt;
  rec->stale_depth = p.stale_depth;
  rec->queue_us = static_cast<float>(p.queue_us);
  rec->encode_us = static_cast<float>(p.encode_us);
  rec->adapt_us = static_cast<float>(p.adapt_us);
  bool valid = static_cast<int64_t>(p.scores.size()) == num_locations;
  int64_t best = 0;
  for (size_t l = 0; valid && l < p.scores.size(); ++l) {
    if (!std::isfinite(p.scores[l])) valid = false;
    if (p.scores[l] > p.scores[static_cast<size_t>(best)]) {
      best = static_cast<int64_t>(l);
    }
  }
  rec->valid = valid;
  rec->hit = valid && best == target;
  rec->state.store(State::kDelivered, std::memory_order_release);
}

/// Lays out the seven spans of one finished measured request in `spans`:
/// the root `request` (due -> completion) and its children back to back —
/// generator lag, the TrySubmit call, the service's own queue / encode /
/// adapt timings, and whatever of the root they leave uncovered.
void EmitRequestSpans(const RequestRecord& rec, uint32_t request,
                      SpanRecorder* spans) {
  const int64_t slot = spans->Reserve(7);
  if (slot < 0) return;
  const auto root = static_cast<uint32_t>(slot + 1);
  const int64_t end = rec.state.load(std::memory_order_acquire) ==
                              State::kDelivered
                          ? rec.done_ns
                          : rec.submitted_ns;
  spans->Set(slot, 0, request, SpanName::kRequest, rec.due_ns, end);
  spans->Set(slot + 1, root, request, SpanName::kLoadgenLag, rec.due_ns,
             rec.sent_ns);
  spans->Set(slot + 2, root, request, SpanName::kServiceSubmit, rec.sent_ns,
             rec.submitted_ns);
  if (rec.state.load(std::memory_order_acquire) != State::kDelivered) return;
  // The stage timings come from the service's clock; clip them to the root
  // so children never overlap the parent's end.
  int64_t t = rec.submitted_ns;
  const struct {
    SpanName name;
    float us;
  } stages[] = {{SpanName::kServiceQueue, rec.queue_us},
                {SpanName::kServiceEncode, rec.encode_us},
                {SpanName::kServiceAdapt, rec.adapt_us}};
  for (int k = 0; k < 3; ++k) {
    const int64_t stage_end =
        std::min(end, t + static_cast<int64_t>(stages[k].us * 1000.0f));
    spans->Set(slot + 3 + k, root, request, stages[k].name, t, stage_end);
    t = stage_end;
  }
  spans->Set(slot + 6, root, request, SpanName::kServiceResidual, t, end);
}

/// Due times relative to the phase start, in nanoseconds.
std::vector<int64_t> Schedule(const OpenLoopConfig& config) {
  std::vector<int64_t> due;
  const double burst_s = std::min(config.burst_s, 1.0);
  const auto periods = static_cast<int64_t>(std::ceil(config.seconds));
  for (int64_t p = 0; p < periods; ++p) {
    const double base = static_cast<double>(p);
    const struct {
      double from, to, rate;
    } segments[] = {{0.0, burst_s, config.burst_qps},
                    {burst_s, 1.0, config.rate_qps}};
    for (const auto& seg : segments) {
      if (seg.rate <= 0) continue;
      for (int64_t k = 0;; ++k) {
        const double t = seg.from + static_cast<double>(k) / seg.rate;
        if (t >= seg.to || base + t >= config.seconds) break;
        due.push_back(static_cast<int64_t>(std::llround((base + t) * 1e9)));
      }
    }
  }
  return due;
}

}  // namespace

OpenLoopResult RunOpenLoop(serve::PredictionService& service,
                           const std::vector<data::Sample>& stream,
                           size_t stream_offset, int64_t num_locations,
                           const OpenLoopConfig& config, SpanRecorder* spans) {
  OpenLoopResult result;
  const std::vector<int64_t> due = Schedule(config);
  const size_t total = due.size();
  result.records = std::vector<RequestRecord>(total);
  std::vector<RequestRecord>& records = result.records;

  // Shared with the completion callbacks, which may outlive this frame if
  // the drain below times out (the caller then shuts the service down).
  auto in_flight = std::make_shared<std::atomic<int64_t>>(0);
  size_t trace_cursor = 0;
  const auto emit_finished = [&](bool all) {
    while (spans != nullptr && trace_cursor < total &&
           (all || records[trace_cursor].state.load(
                       std::memory_order_acquire) != State::kPending)) {
      if (records[trace_cursor].traced) {
        EmitRequestSpans(records[trace_cursor],
                         static_cast<uint32_t>(trace_cursor), spans);
      }
      ++trace_cursor;
    }
  };

  result.start_ns = NowNs() + 1000000;  // 1 ms lead for the first send
  for (size_t i = 0; i < total; ++i) {
    RequestRecord& rec = records[i];
    rec.due_ns = result.start_ns + due[i];
    rec.traced =
        spans != nullptr && (rec.due_ns - result.start_ns) / 1000000000 % 2 == 1;
    emit_finished(false);
    int64_t now = NowNs();
    if (now < rec.due_ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(rec.due_ns - now));
      now = NowNs();
    }
    rec.sent_ns = now;
    if (in_flight->load(std::memory_order_acquire) >= kMaxInFlight) {
      rec.submitted_ns = now;
      rec.state.store(State::kDropped, std::memory_order_release);
      continue;
    }
    const data::Sample& sample = stream[(stream_offset + i) % stream.size()];
    const int64_t target = sample.target.location;
    in_flight->fetch_add(1, std::memory_order_acq_rel);
    const bool accepted = service.TrySubmit(
        sample, &rec.future, [&rec, num_locations, target, in_flight] {
          Complete(&rec, num_locations, target);
          in_flight->fetch_sub(1, std::memory_order_acq_rel);
        });
    rec.submitted_ns = NowNs();
    if (!accepted) {
      in_flight->fetch_sub(1, std::memory_order_acq_rel);
      rec.state.store(State::kShed, std::memory_order_release);
    }
  }

  const int64_t deadline = NowNs() + kDrainTimeoutNs;
  while (in_flight->load(std::memory_order_acquire) > 0 && NowNs() < deadline) {
    emit_finished(false);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  result.drained = in_flight->load(std::memory_order_acquire) == 0;
  if (result.drained) emit_finished(true);

  result.end_ns = result.start_ns;
  for (size_t i = 0; i < total; ++i) {
    const State state = records[i].state.load(std::memory_order_acquire);
    ++result.arrivals;
    switch (state) {
      case State::kDelivered:
        ++result.delivered;
        result.end_ns = std::max(result.end_ns, records[i].done_ns);
        break;
      case State::kShed: ++result.shed; break;
      case State::kDropped: ++result.dropped; break;
      case State::kPending: break;
    }
  }
  return result;
}

}  // namespace adamove::perfbench
