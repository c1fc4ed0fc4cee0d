#ifndef ADAMOVE_NN_KERNELS_BACKEND_H_
#define ADAMOVE_NN_KERNELS_BACKEND_H_

#include <cstdint>

// Internal plumbing of the kernel backend dispatch (include only from
// src/nn/kernels*.cc and backend tests): one function-pointer table per
// backend, selected once at startup by kernels.cc. Each entry is the
// complete parallel kernel (ParallelFor inside), so a table swap changes
// arithmetic implementation and nothing else.
//
// Backend contract (DESIGN.md §13): the scalar table is the reference
// semantics — bit-identical to the historical serial loops at any thread
// count. A vector table must be *exact* (bit-identical to scalar) for
// kernels whose per-element accumulation order it preserves — VecMatCols,
// VecMatColsF64, Axpy, PttaCentroidDot's per-element centroid — and may be
// tolerance-bounded where it reassociates sums (MatMul*) or substitutes a
// polynomial exp (BiasTanh/BiasSigmoid/softmax/entropy). Which kernel is
// which is pinned by tests/nn/kernels_backend_test.cc.

namespace adamove::nn::kernels {

struct KernelTable {
  void (*matmul_nn)(const float* a, const float* b, float* c, int64_t n,
                    int64_t k, int64_t m);
  void (*matmul_tn)(const float* a, const float* b, float* c, int64_t k,
                    int64_t n, int64_t m);
  void (*matmul_nt)(const float* a, const float* b, float* c, int64_t n,
                    int64_t k, int64_t m);
  void (*vec_mat_cols)(const float* x, const float* w, float* out, int64_t n,
                       int64_t m, bool skip_zero);
  void (*vec_mat_cols_f64)(const float* x, const float* w, float* out,
                           int64_t n, int64_t m);
  void (*bias_tanh)(const float* x, const float* b, float* out, int64_t rows,
                    int64_t cols, bool broadcast_bias);
  void (*bias_sigmoid)(const float* x, const float* b, float* out,
                       int64_t rows, int64_t cols, bool broadcast_bias);
  void (*axpy)(int64_t n, float alpha, const float* x, float* y);
  void (*masked_softmax_rows)(const float* x, float* out, int64_t rows,
                              int64_t cols, const int64_t* valid);
  void (*softmax_rows)(const float* x, float* out, int64_t rows,
                       int64_t cols);
  float (*softmax_entropy)(const float* logits, int64_t n);
  double (*ptta_centroid_dot)(const float* query, const float* wcol,
                              int64_t wstride, const float* patterns,
                              int64_t keep, int64_t h);
};

/// The scalar reference backend — always available.
const KernelTable& ScalarTable();

/// The AVX2+FMA backend; null when the binary lacks the translation unit
/// (non-x86 build) or the host CPU lacks avx2/fma.
const KernelTable* Avx2TableOrNull();

}  // namespace adamove::nn::kernels

#endif  // ADAMOVE_NN_KERNELS_BACKEND_H_
