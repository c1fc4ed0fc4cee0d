#ifndef ADAMOVE_NN_KERNELS_H_
#define ADAMOVE_NN_KERNELS_H_

#include <cstdint>
#include <string>

namespace adamove::nn::kernels {

// Thread-parallel, cache-blocked compute kernels over raw row-major float
// buffers — the arithmetic substrate beneath the autograd ops and the PTTA
// hot path. Style follows Caffe2's kernel layer: small explicit flat loops
// over raw pointers, parallelized with a ParallelFor over output rows (or
// columns for the vector×matrix case) on the shared common thread pool.
//
// Determinism contract: parallelism is scheduling, never arithmetic. Every
// output element is accumulated by exactly one thread, in the same order as
// the reference serial loop (ascending inner index, identical skip-zero
// shortcuts), so results are bit-identical to a single-threaded run at any
// thread count. Tiling only reorders *which element* is visited next, never
// the accumulation order *within* an element. This holds for every backend.
//
// Backends (DESIGN.md §13): each kernel below dispatches through a
// function-pointer table selected once, lazily, at first kernel use:
//   * scalar — the historical portable loops; the repo's arithmetic
//     reference. All golden pins are defined against it.
//   * simd   — AVX2+FMA on x86 hosts that support it; other hosts run
//     scalar.
//     Bit-identical to scalar for the column-parallel kernels (VecMatCols,
//     VecMatColsF64, Axpy) whose per-element operation sequence it
//     preserves; tolerance-bounded for MatMul* (FMA micro-panels) and the
//     transcendental kernels (polynomial exp/tanh).
// Selection: ADAMOVE_KERNEL_BACKEND=scalar forces the reference;
// ADAMOVE_KERNEL_BACKEND=simd requests vector kernels (falls back to scalar
// when the host can't run them); unset picks the best available.

/// Which kernel table is active. kSimd is the vector table (AVX2+FMA);
/// BackendDescription() names it.
enum class Backend : uint8_t {
  kScalar = 0,
  kSimd = 1,
};

/// The active backend, selecting one (env var + CPUID) on first call.
Backend ActiveBackend();

/// Stable short name for a backend value: "scalar" or "simd".
const char* BackendName(Backend backend);

/// Human-readable description of the *active* backend, e.g. "scalar" or
/// "simd (avx2+fma)" — what benches and bench_serving print.
std::string BackendDescription();

/// Re-reads ADAMOVE_KERNEL_BACKEND and reselects. For tests and bench mains
/// that set the env var after startup; returns the newly active backend.
/// Must not race in-flight kernels (callers swap backends only between
/// self-contained computations).
Backend RefreshBackendFromEnv();

/// Installs `backend` directly (still subject to availability: requesting
/// kSimd on a host without vector kernels installs scalar). Test-only.
void SetBackendForTest(Backend backend);

/// C({n,m}) += A({n,k}) * B({k,m}). Per element: ascending p. Scalar backend
/// skips A(i,p) == 0 terms (matches the historical ikj loop bit-for-bit);
/// vector backends are tolerance-bounded against it.
void MatMulNN(const float* a, const float* b, float* c, int64_t n, int64_t k,
              int64_t m);

/// C({n,m}) += A({k,n})^T * B({k,m}). Per element: ascending p; scalar
/// backend skips A(p,i) == 0.
void MatMulTN(const float* a, const float* b, float* c, int64_t k, int64_t n,
              int64_t m);

/// C({n,m}) += A({n,k}) * B({m,k})^T. Per element: a single ascending-p dot
/// product accumulated locally (no skip-zero, as historically).
void MatMulNT(const float* a, const float* b, float* c, int64_t n, int64_t k,
              int64_t m);

/// out({m,n}) = a({n,m})^T (assignment) or += when `accumulate`. Pure data
/// movement — shared by all backends, always bit-exact.
void TransposeInto(const float* a, float* out, int64_t n, int64_t m,
                   bool accumulate);

/// out[l] = sum_i x[i] * w[i*m + l] for l in [0, m) — a row vector times a
/// row-major {n, m} matrix, parallelized over output columns. When
/// `skip_zero`, terms with x[i] == 0 are skipped (the PTTA LogitsOf
/// contract). Accumulation is a per-column float in ascending i; the simd
/// backend vectorizes *across* columns and is bit-identical to scalar.
void VecMatCols(const float* x, const float* w, float* out, int64_t n,
                int64_t m, bool skip_zero);

/// VecMatCols with per-column double accumulation (ascending i, no
/// skip-zero), rounded to float on store — the frozen-classifier scoring
/// semantics of OnlineAdapter. Bit-identical across backends.
void VecMatColsF64(const float* x, const float* w, float* out, int64_t n,
                   int64_t m);

// -- fused elementwise kernels (one pass, vectorization-friendly bodies) ----

/// out[r,c] = tanh(x[r,c] + b[c])  (bias_rows == 1: row-broadcast bias)
/// out[r,c] = tanh(x[r,c] + b[r,c]) otherwise.
void BiasTanh(const float* x, const float* b, float* out, int64_t rows,
              int64_t cols, bool broadcast_bias);

/// Same shapes as BiasTanh with sigmoid: out = 1 / (1 + exp(-(x + b))).
void BiasSigmoid(const float* x, const float* b, float* out, int64_t rows,
                 int64_t cols, bool broadcast_bias);

/// y[i] += alpha * x[i] for i in [0, n). Bit-identical across backends.
void Axpy(int64_t n, float alpha, const float* x, float* y);

/// Row-wise masked softmax: row r is a softmax over its first valid[r]
/// entries (max-subtracted, float accumulation in ascending column order,
/// exactly mirroring the dense Softmax loop); entries at and beyond
/// valid[r] are written as 0. valid[r] must be in [1, cols].
void MaskedSoftmaxRows(const float* x, float* out, int64_t rows, int64_t cols,
                       const int64_t* valid);

/// Dense row-wise softmax (valid == cols for every row).
void SoftmaxRows(const float* x, float* out, int64_t rows, int64_t cols);

/// Shannon entropy (nats) of softmax(logits) — the PTTA entropy-importance
/// primitive. Scalar backend reproduces the historical double-accumulation
/// loop exactly; simd is tolerance-bounded.
float SoftmaxEntropy(const float* logits, int64_t n);

/// The PTTA adjusted-column score core: with centroid
///   c[i] = wcol[i*wstride] + sum_k patterns[k*h + i],
/// returns sum_i query[i] * c[i], accumulated in double, ascending i, θ
/// first then patterns in arrival order per element — bit-identical to
/// materializing the centroid and dotting it (the historical loop pair).
double PttaCentroidDot(const float* query, const float* wcol, int64_t wstride,
                       const float* patterns, int64_t keep, int64_t h);

/// Suggested ParallelFor grain for a loop whose per-index cost is roughly
/// `per_item_work` scalar operations: chunks are sized so each task does at
/// least ~32k operations, keeping submit overhead negligible.
int64_t GrainForWork(int64_t per_item_work);

}  // namespace adamove::nn::kernels

#endif  // ADAMOVE_NN_KERNELS_H_
