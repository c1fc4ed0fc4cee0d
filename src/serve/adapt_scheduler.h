#ifndef ADAMOVE_SERVE_ADAPT_SCHEDULER_H_
#define ADAMOVE_SERVE_ADAPT_SCHEDULER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/annotations.h"
#include "common/mutex.h"

namespace adamove::serve {

/// How the service schedules per-user adaptation work (DESIGN.md §16).
enum class AdaptMode : uint8_t {
  /// Every KB ingest and adjusted-column rebuild runs inline in the
  /// request, regardless of load (the default: bit-identical to the
  /// pre-scheduler path).
  kInline,
  /// Pressure-driven: inline while the service is calm, deferred (buffered
  /// ingests + cached-rebuild predicts) while the pressure gauge reads
  /// overload, with hysteresis between the two.
  kElastic,
};

/// Pressure at or above which the gauge trips into deferred adaptation.
inline constexpr double kHighWatermark = 0.75;
/// Pressure at or below which it recovers to inline (hysteresis band:
/// low < high, so the gauge cannot flap on a noisy boundary load).
inline constexpr double kLowWatermark = 0.35;
/// EWMA smoothing factor of the pressure gauge.
inline constexpr double kEwmaAlpha = 0.3;
/// Per-user pending-delta bound: a deferred predict that finds this many
/// buffered deltas is forced inline (drain + fresh rebuild) instead, so
/// staleness depth is bounded by construction.
inline constexpr size_t kMaxStaleDepth = 256;
/// Dirty users an elastic worker drains in the background after each take
/// while the gauge reads calm.
inline constexpr size_t kDrainUsersPerTake = 4;

/// Adaptation scheduling of one service. The band, the staleness bound and
/// the drain rate are the fixed constants above.
struct AdaptSchedulerConfig {
  AdaptMode mode = AdaptMode::kInline;
};

/// The per-service load signal: a queue-pressure EWMA with hysteresis.
///
/// Each take reports two saturation ratios — the queue depth it saw over
/// capacity, and the taken request's wait over the request deadline — and
/// the gauge folds max(both) into an EWMA. Crossing
/// kHighWatermark trips `deferred()`; it stays tripped until the EWMA falls
/// back to kLowWatermark, so a load hovering at the boundary cannot flap
/// the scheduler (the classic hysteresis band).
///
/// deferred() is one relaxed-ish atomic load, so the worker hot path reads
/// it for free; Update runs under a private mutex (workers race to report,
/// the EWMA just folds their reports in arrival order).
class PressureGauge {
 public:
  /// Folds one take's observation into the gauge. `wait_us` is how long
  /// the taken request queued; `deadline_us` (> 0) is the per-request
  /// deadline, the wait that reads as fully saturated.
  void Update(size_t queue_depth, size_t queue_capacity, double wait_us,
              double deadline_us);

  /// Whether the scheduler is currently in deferred adaptation.
  bool deferred() const { return deferred_.load(std::memory_order_acquire); }

  /// Inline<->deferred transitions so far (diagnostics).
  uint64_t mode_switches() const {
    return switches_.load(std::memory_order_relaxed);
  }

 private:
  common::Mutex mu_;
  double ewma_ ADAMOVE_GUARDED_BY(mu_) = 0.0;
  std::atomic<bool> deferred_{false};
  std::atomic<uint64_t> switches_{0};
};

}  // namespace adamove::serve

#endif  // ADAMOVE_SERVE_ADAPT_SCHEDULER_H_
