#ifndef ADAMOVE_COMMON_PARALLEL_FOR_H_
#define ADAMOVE_COMMON_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>

namespace adamove::common {

/// Deterministic data-parallel loop over the index range [begin, end).
///
/// The range is partitioned into contiguous chunks and `fn(lo, hi)` is
/// invoked once per chunk, each chunk on exactly one thread. Because every
/// index is processed by exactly one invocation, a kernel whose per-index
/// work is self-contained (reads shared inputs, writes only outputs owned by
/// its indices, accumulates in the same order as a serial loop) produces
/// bit-identical results at any thread count — parallelism is scheduling,
/// never arithmetic.
///
/// `grain` is the minimum number of indices per chunk; ranges at or below
/// the grain (and all nested calls — a chunk body that itself calls
/// ParallelFor runs its inner loop serially) execute inline on the caller.
/// The caller always participates as a worker, so a pool of size T serves
/// T-way parallelism with T-1 pool threads.
///
/// Work is executed on a process-wide lazily-initialized ThreadPool shared
/// by every kernel call site (nn kernels, the PTTA hot path, batch scoring).
/// Its size comes from ADAMOVE_NUM_THREADS, defaulting to
/// std::thread::hardware_concurrency(). The serving subsystem's request
/// workers are separate threads; they share this one compute pool, so
/// oversubscription stays bounded regardless of how many requests are in
/// flight.
///
/// Declared as a template so the inline paths (serial region, nested call,
/// range at or below the grain) invoke the callable directly: type-erasing
/// a capturing kernel lambda into std::function heap-allocates at the call
/// site, which would break the zero-allocation contract of the raw encoder
/// path even though the pool is never touched.
namespace parallel_internal {
/// True when the calling thread must run chunks inline: inside a
/// SerialKernelRegion or already executing a ParallelFor chunk.
bool InSerialRegion();
/// Out-of-line pool path (chunking + future joins). Pays the type-erasure
/// allocation; only reached when the pool genuinely runs.
void ParallelForPool(int64_t begin, int64_t end, int64_t grain,
                     const std::function<void(int64_t, int64_t)>& fn);
}  // namespace parallel_internal

template <typename Fn>
void ParallelFor(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
  const int64_t range = end - begin;
  if (range <= 0) return;
  if (grain < 1) grain = 1;
  if (range <= grain || parallel_internal::InSerialRegion()) {
    fn(begin, end);
    return;
  }
  parallel_internal::ParallelForPool(begin, end, grain, fn);
}

/// Threads the shared kernel pool targets (pool threads + the caller).
int KernelThreads();

/// RAII scope that forces every ParallelFor on the calling thread to run
/// inline (no pool submission) for its lifetime. Values are unaffected —
/// chunking is scheduling, never arithmetic (DESIGN.md §13) — but the pool
/// path heap-allocates its future list, so zero-allocation request scopes
/// (the raw encoder path, the OnlineAdapter `*Into` entry points) pin
/// kernels serial with this guard. Nests safely: the innermost scope that
/// set the flag restores the previous state.
class SerialKernelRegion {
 public:
  SerialKernelRegion();
  ~SerialKernelRegion();
  SerialKernelRegion(const SerialKernelRegion&) = delete;
  SerialKernelRegion& operator=(const SerialKernelRegion&) = delete;

 private:
  bool previous_;
};

/// Overrides the kernel-pool size (primarily for tests and benchmarks that
/// sweep thread counts). Joins and rebuilds the pool; must not be called
/// concurrently with in-flight ParallelFor calls. `n <= 0` restores the
/// ADAMOVE_NUM_THREADS / hardware_concurrency default.
void SetKernelThreads(int n);

}  // namespace adamove::common

#endif  // ADAMOVE_COMMON_PARALLEL_FOR_H_
