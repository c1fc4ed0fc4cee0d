#include "serve/adapt_scheduler.h"

#include <algorithm>

namespace adamove::serve {

void PressureGauge::Update(size_t queue_depth, size_t queue_capacity,
                           double wait_us, double deadline_us) {
  const double depth_ratio =
      queue_capacity == 0
          ? 0.0
          : static_cast<double>(queue_depth) /
                static_cast<double>(queue_capacity);
  const double instant =
      std::max(depth_ratio, wait_us / deadline_us);
  bool tripped;
  bool recovered;
  {
    common::MutexLock lock(mu_);
    ewma_ = kEwmaAlpha * instant + (1.0 - kEwmaAlpha) * ewma_;
    const bool was = deferred_.load(std::memory_order_relaxed);
    tripped = !was && ewma_ >= kHighWatermark;
    recovered = was && ewma_ <= kLowWatermark;
    if (tripped) deferred_.store(true, std::memory_order_release);
    if (recovered) deferred_.store(false, std::memory_order_release);
  }
  if (tripped || recovered) {
    switches_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace adamove::serve
