#ifndef ADAMOVE_COMMON_ALLOC_PROBE_H_
#define ADAMOVE_COMMON_ALLOC_PROBE_H_

#include <cstdint>

#include "common/check.h"

namespace adamove::common {

/// Allocation-counting probe (DESIGN.md §14).
///
/// alloc_probe.cc replaces the global `operator new` / `operator delete`
/// family with malloc-backed implementations that bump thread-local
/// counters, so a test can assert that a scope performed zero heap
/// allocations — the contract the raw encoder path and the `*Into` adapter
/// entry points promise for steady-state requests.
///
/// The replacement operators are compiled out under ASan/TSan/MSan: those
/// runtimes interpose the allocator themselves, and stacking a second
/// interposition on top would bypass their poisoning/race instrumentation.
/// `AllocProbeAvailable()` reports whether the probe is live in this build;
/// `ASSERT_NO_ALLOCATIONS` degrades to "run the scope, assert nothing" when
/// it is not, so the `plan`-labeled suites stay runnable (and still exercise
/// the code under the sanitizer) in every check.sh stage.
///
/// Counters are per-thread: allocations made by other threads (e.g. kernel
/// pool workers) are invisible to the probing thread. Zero-alloc scopes must
/// therefore also pin kernels inline — see common::SerialKernelRegion.

/// True when the counting operator new/delete replacements are linked into
/// this build (plain and UBSan builds; false under ASan/TSan/MSan).
bool AllocProbeAvailable();

/// Number of heap allocations (any operator-new flavor) performed by the
/// calling thread since it started. Monotonic; meaningful only as a delta.
uint64_t ThreadAllocCount();

/// Number of heap deallocations performed by the calling thread.
uint64_t ThreadFreeCount();

/// RAII window over the calling thread's allocation counter.
class AllocProbeScope {
 public:
  AllocProbeScope()
      : start_allocs_(ThreadAllocCount()), start_frees_(ThreadFreeCount()) {}
  uint64_t allocations() const { return ThreadAllocCount() - start_allocs_; }
  uint64_t frees() const { return ThreadFreeCount() - start_frees_; }

 private:
  uint64_t start_allocs_;
  uint64_t start_frees_;
};

}  // namespace adamove::common

/// Runs `scope` (a statement or block) and aborts if the calling thread
/// performed any heap allocation while it ran. Compiles to a plain execution
/// of `scope` when the probe is unavailable (sanitizer builds), so tests
/// using it are safe to run in every check.sh stage.
#define ASSERT_NO_ALLOCATIONS(scope)                                      \
  do {                                                                    \
    ::adamove::common::AllocProbeScope adamove_alloc_probe_window_;       \
    { scope; }                                                            \
    if (::adamove::common::AllocProbeAvailable()) {                       \
      ADAMOVE_CHECK_EQ(adamove_alloc_probe_window_.allocations(),         \
                       static_cast<uint64_t>(0));                         \
    }                                                                     \
  } while (0)

#endif  // ADAMOVE_COMMON_ALLOC_PROBE_H_
