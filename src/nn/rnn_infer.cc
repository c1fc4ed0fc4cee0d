// Raw-buffer inference for the recurrent encoders (SequenceEncoder::
// ForwardRaw, DESIGN.md §14). Each cell mirrors its Forward in rnn.cc call
// for call: the same MatMulNN / BiasTanh / BiasSigmoid kernels and the same
// scalar loops as ops.cc, one op per loop, with plain offsets where Forward
// materializes Row and SliceCols copies. Every value is therefore rounded
// as the graph walk rounds it, on every kernel backend. Where Forward starts
// from Tensor::Zeros, step 0 reads the carry; both backends are row-count
// invariant (DESIGN.md §13), so a run from the carry a prefix left gives
// each new row the bits the whole-window run gives it.
//
// Nothing here allocates once the scratch has grown: the lint rule
// raw-step-alloc holds this file to that, except where Sized grows it.

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "nn/kernels.h"
#include "nn/rnn.h"
#include "nn/stacked.h"

namespace adamove::nn {

namespace {

// Grows `buf` to n floats and returns them. Capacity is kept, so only the
// first call at a new maximum size allocates.
float* Sized(common::AlignedBuffer<float>* buf, int64_t n) {
  buf->Resize(  // NOLINT(raw-step-alloc): sizes the caller's scratch
      static_cast<size_t>(n));
  return buf->data();
}

// Add(MatMul(x, w), b) over all t rows: MatMul accumulates into a
// zero-filled node, and the bias row is added to each row.
void ProjectInputs(const float* x, int64_t t, int64_t in, const float* w,
                   const float* b, int64_t cols, float* xw) {
  std::fill_n(xw, t * cols, 0.0f);
  kernels::MatMulNN(x, w, xw, t, in, cols);
  for (int64_t r = 0; r < t; ++r) {
    for (int64_t c = 0; c < cols; ++c) {
      xw[r * cols + c] = xw[r * cols + c] + b[c];
    }
  }
}

// MatMul(h, w) for one {1, hs} row.
void ProjectState(const float* h, const float* w, int64_t hs, int64_t cols,
                  float* out) {
  std::fill_n(out, cols, 0.0f);
  kernels::MatMulNN(h, w, out, 1, hs, cols);
}

// The ops.cc elementwise loops.
void AddInto(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void MulInto(const float* a, const float* b, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

void TanhInto(const float* a, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = std::tanh(a[i]);
}

void SigmoidInto(const float* a, float* out, int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = 1.0f / (1.0f + std::exp(-a[i]));
}

}  // namespace

void SequenceEncoder::ForwardRaw(const float*, int64_t, float*, float*,
                                 RawScratch*) const {
  common::FatalCheckFailure(__FILE__, __LINE__,
                            "ForwardRaw on an encoder without a raw path");
}

void RnnEncoder::ForwardRaw(const float* x, int64_t t_len, float* carry,
                            float* out, RawScratch* scratch) const {
  ADAMOVE_CHECK_GE(t_len, 1);
  const int64_t hs = hidden_size_;
  float* xw = Sized(&scratch->steps, (t_len + 1) * hs);
  float* hw = xw + t_len * hs;
  ProjectInputs(x, t_len, input_size_, w_ih_.data().data(),
                bias_.data().data(), hs, xw);
  for (int64_t t = 0; t < t_len; ++t) {
    const float* h = t == 0 ? carry : out + (t - 1) * hs;
    ProjectState(h, w_hh_.data().data(), hs, hs, hw);
    kernels::BiasTanh(xw + t * hs, hw, out + t * hs, 1, hs,
                      /*broadcast_bias=*/false);
  }
  std::copy_n(out + (t_len - 1) * hs, hs, carry);
}

void LstmEncoder::ForwardRaw(const float* x, int64_t t_len, float* carry,
                             float* out, RawScratch* scratch) const {
  ADAMOVE_CHECK_GE(t_len, 1);
  const int64_t hs = hidden_size_;
  float* xw = Sized(&scratch->steps, (t_len + 1) * 4 * hs + 3 * hs);
  float* gates = xw + t_len * 4 * hs;
  float* i = gates;
  float* f = gates + hs;
  float* g = gates + 2 * hs;
  float* o = gates + 3 * hs;
  float* fc = gates + 4 * hs;
  float* ig = fc + hs;
  float* tc = ig + hs;
  float* c = carry + hs;  // the cell state lives in the carry throughout
  ProjectInputs(x, t_len, input_size_, w_ih_.data().data(),
                bias_.data().data(), 4 * hs, xw);
  for (int64_t t = 0; t < t_len; ++t) {
    const float* h = t == 0 ? carry : out + (t - 1) * hs;
    ProjectState(h, w_hh_.data().data(), hs, 4 * hs, gates);
    AddInto(xw + t * 4 * hs, gates, gates, 4 * hs);
    SigmoidInto(i, i, hs);
    SigmoidInto(f, f, hs);
    TanhInto(g, g, hs);
    SigmoidInto(o, o, hs);
    MulInto(f, c, fc, hs);
    MulInto(i, g, ig, hs);
    AddInto(fc, ig, c, hs);
    TanhInto(c, tc, hs);
    MulInto(o, tc, out + t * hs, hs);
  }
  std::copy_n(out + (t_len - 1) * hs, hs, carry);
}

void GruEncoder::ForwardRaw(const float* x, int64_t t_len, float* carry,
                            float* out, RawScratch* scratch) const {
  ADAMOVE_CHECK_GE(t_len, 1);
  const int64_t hs = hidden_size_;
  float* xw = Sized(&scratch->steps, (t_len + 1) * 3 * hs + 7 * hs);
  float* hw = xw + t_len * 3 * hs;
  float* r = hw + 3 * hs;
  float* z = r + hs;
  float* rh = z + hs;
  float* n = rh + hs;
  float* omz = n + hs;
  float* a1 = omz + hs;
  float* a2 = a1 + hs;
  ProjectInputs(x, t_len, input_size_, w_ih_.data().data(),
                b_ih_.data().data(), 3 * hs, xw);
  for (int64_t t = 0; t < t_len; ++t) {
    const float* h = t == 0 ? carry : out + (t - 1) * hs;
    const float* xt = xw + t * 3 * hs;
    ProjectState(h, w_hh_.data().data(), hs, 3 * hs, hw);
    AddInto(hw, b_hh_.data().data(), hw, 3 * hs);
    kernels::BiasSigmoid(xt, hw, r, 1, hs, /*broadcast_bias=*/false);
    kernels::BiasSigmoid(xt + hs, hw + hs, z, 1, hs, /*broadcast_bias=*/false);
    MulInto(r, hw + 2 * hs, rh, hs);
    kernels::BiasTanh(xt + 2 * hs, rh, n, 1, hs, /*broadcast_bias=*/false);
    // 1 - z as Forward rounds it: ScalarAdd(ScalarMul(z, -1), 1).
    for (int64_t k = 0; k < hs; ++k) omz[k] = z[k] * -1.0f;
    for (int64_t k = 0; k < hs; ++k) omz[k] = omz[k] + 1.0f;
    MulInto(omz, n, a1, hs);
    MulInto(z, h, a2, hs);
    AddInto(a1, a2, out + t * hs, hs);
  }
  std::copy_n(out + (t_len - 1) * hs, hs, carry);
}

int64_t StackedEncoder::carry_size() const {
  int64_t total = 0;
  for (const auto& layer : layers_) {
    if (layer->carry_size() == 0) return 0;
    total += layer->carry_size();
  }
  return total;
}

void StackedEncoder::ForwardRaw(const float* x, int64_t t_len, float* carry,
                                float* out, RawScratch* scratch) const {
  int64_t between = 0;
  for (size_t l = 0; l + 1 < layers_.size(); ++l) {
    between += t_len * layers_[l]->hidden_size();
  }
  float* mid = Sized(&scratch->layers, between);
  const float* in = x;
  for (size_t l = 0; l < layers_.size(); ++l) {
    float* dst = l + 1 == layers_.size() ? out : mid;
    layers_[l]->ForwardRaw(in, t_len, carry, dst, scratch);
    carry += layers_[l]->carry_size();
    mid += t_len * layers_[l]->hidden_size();
    in = dst;
  }
}

}  // namespace adamove::nn
