// The kernel dispatch layer: selects a backend table once (lazily, from
// ADAMOVE_KERNEL_BACKEND + CPU feature detection) and forwards every public
// kernel through it. TransposeInto and GrainForWork live here directly —
// pure data movement / scheduling policy, identical for all backends.

#include "nn/kernels.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string>

#include "common/cpu_features.h"
#include "common/mutex.h"
#include "common/parallel_for.h"
#include "nn/kernels_backend.h"

namespace adamove::nn::kernels {

namespace {

// Selected table + backend tag. The table pointer is the synchronization
// point: published with release after the tag, read with acquire. nullptr
// means "not yet selected".
std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<int> g_backend{static_cast<int>(Backend::kScalar)};
common::Mutex g_select_mu;

struct Selection {
  Backend backend;
  const KernelTable* table;
};

Selection Resolve(Backend requested) {
  if (requested == Backend::kSimd) {
    if (const KernelTable* simd = Avx2TableOrNull()) {
      return {Backend::kSimd, simd};
    }
  }
  return {Backend::kScalar, &ScalarTable()};
}

Selection SelectFromEnv() {
  const char* env = std::getenv("ADAMOVE_KERNEL_BACKEND");
  const std::string requested = env == nullptr ? "" : env;
  if (requested == "scalar") return Resolve(Backend::kScalar);
  // "simd", unset, or anything unrecognized: the dispatcher default — the
  // best backend this host can execute.
  return Resolve(Backend::kSimd);
}

void InstallLocked(Selection s) {
  g_backend.store(static_cast<int>(s.backend), std::memory_order_relaxed);
  g_table.store(s.table, std::memory_order_release);
}

const KernelTable& Table() {
  const KernelTable* t = g_table.load(std::memory_order_acquire);
  if (t == nullptr) {
    common::MutexLock lock(g_select_mu);
    t = g_table.load(std::memory_order_acquire);
    if (t == nullptr) {
      InstallLocked(SelectFromEnv());
      t = g_table.load(std::memory_order_acquire);
    }
  }
  return *t;
}

}  // namespace

Backend ActiveBackend() {
  Table();  // force selection on first query
  return static_cast<Backend>(g_backend.load(std::memory_order_relaxed));
}

const char* BackendName(Backend backend) {
  return backend == Backend::kScalar ? "scalar" : "simd";
}

std::string BackendDescription() {
  if (ActiveBackend() == Backend::kScalar) return "scalar";
  return std::string("simd (") + common::CpuFeatureString() + ")";
}

Backend RefreshBackendFromEnv() {
  common::MutexLock lock(g_select_mu);
  InstallLocked(SelectFromEnv());
  return static_cast<Backend>(g_backend.load(std::memory_order_relaxed));
}

void SetBackendForTest(Backend backend) {
  common::MutexLock lock(g_select_mu);
  InstallLocked(Resolve(backend));
}

int64_t GrainForWork(int64_t per_item_work) {
  constexpr int64_t kMinTaskWork = 1 << 15;
  per_item_work = std::max<int64_t>(per_item_work, 1);
  return std::max<int64_t>(1, kMinTaskWork / per_item_work);
}

void MatMulNN(const float* a, const float* b, float* c, int64_t n, int64_t k,
              int64_t m) {
  Table().matmul_nn(a, b, c, n, k, m);
}

void MatMulTN(const float* a, const float* b, float* c, int64_t k, int64_t n,
              int64_t m) {
  Table().matmul_tn(a, b, c, k, n, m);
}

void MatMulNT(const float* a, const float* b, float* c, int64_t n, int64_t k,
              int64_t m) {
  Table().matmul_nt(a, b, c, n, k, m);
}

void TransposeInto(const float* a, float* out, int64_t n, int64_t m,
                   bool accumulate) {
  // Parallel over output rows (columns of a); each out element is written
  // exactly once.
  common::ParallelFor(0, m, GrainForWork(n), [=](int64_t r0, int64_t r1) {
    for (int64_t j = r0; j < r1; ++j) {
      float* orow = out + j * n;
      const float* acol = a + j;
      if (accumulate) {
        for (int64_t i = 0; i < n; ++i) orow[i] += acol[i * m];
      } else {
        for (int64_t i = 0; i < n; ++i) orow[i] = acol[i * m];
      }
    }
  });
}

void VecMatCols(const float* x, const float* w, float* out, int64_t n,
                int64_t m, bool skip_zero) {
  Table().vec_mat_cols(x, w, out, n, m, skip_zero);
}

void VecMatColsF64(const float* x, const float* w, float* out, int64_t n,
                   int64_t m) {
  Table().vec_mat_cols_f64(x, w, out, n, m);
}

void BiasTanh(const float* x, const float* b, float* out, int64_t rows,
              int64_t cols, bool broadcast_bias) {
  Table().bias_tanh(x, b, out, rows, cols, broadcast_bias);
}

void BiasSigmoid(const float* x, const float* b, float* out, int64_t rows,
                 int64_t cols, bool broadcast_bias) {
  Table().bias_sigmoid(x, b, out, rows, cols, broadcast_bias);
}

void Axpy(int64_t n, float alpha, const float* x, float* y) {
  Table().axpy(n, alpha, x, y);
}

void MaskedSoftmaxRows(const float* x, float* out, int64_t rows, int64_t cols,
                       const int64_t* valid) {
  Table().masked_softmax_rows(x, out, rows, cols, valid);
}

void SoftmaxRows(const float* x, float* out, int64_t rows, int64_t cols) {
  Table().softmax_rows(x, out, rows, cols);
}

float SoftmaxEntropy(const float* logits, int64_t n) {
  return Table().softmax_entropy(logits, n);
}

double PttaCentroidDot(const float* query, const float* wcol, int64_t wstride,
                       const float* patterns, int64_t keep, int64_t h) {
  return Table().ptta_centroid_dot(query, wcol, wstride, patterns, keep, h);
}

}  // namespace adamove::nn::kernels
