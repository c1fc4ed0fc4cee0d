#ifndef ADAMOVE_NN_RNN_H_
#define ADAMOVE_NN_RNN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/rng.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/tensor.h"

namespace adamove::nn {

/// Caller-owned buffers for SequenceEncoder::ForwardRaw. They keep their
/// capacity, so once they have grown to the longest window a call allocates
/// nothing.
struct RawScratch {
  common::AlignedBuffer<float> steps;   // a cell's x W_ih rows and temps
  common::AlignedBuffer<float> layers;  // a stack's intermediate outputs
};

/// Interface for causal sequence encoders: given a {T, in} sequence of step
/// embeddings, produce a {T, H} matrix whose row t encodes the prefix
/// x[0..t]. The causal (prefix) property is what lets PTTA obtain every
/// prefix representation from a single forward pass.
class SequenceEncoder : public Module {
 public:
  virtual Tensor Forward(const Tensor& x, bool training) = 0;
  virtual int64_t hidden_size() const = 0;

  /// Floats of recurrent state ForwardRaw carries between calls (per layer
  /// h, then an LSTM's c), or 0 when the encoder has no raw path and
  /// inference walks the graph (the Transformer).
  virtual int64_t carry_size() const { return 0; }

  /// Inference on raw buffers (DESIGN.md §14): maps x ({t, in}, row-major,
  /// t >= 1) to out ({t, hidden_size()}), resuming from the carry_size()
  /// floats at `carry` and leaving there the state after the last row. From
  /// a zero carry the rows are bit-identical to Forward's under every kernel
  /// backend; from the carry a prefix left, to the matching rows of Forward
  /// over the whole window. Requires carry_size() > 0.
  virtual void ForwardRaw(const float* x, int64_t t, float* carry, float* out,
                          RawScratch* scratch) const;
};

/// Vanilla (Elman) RNN: h_t = tanh(x_t W_ih + h_{t-1} W_hh + b).
class RnnEncoder : public SequenceEncoder {
 public:
  RnnEncoder(int64_t input_size, int64_t hidden_size, common::Rng& rng);

  Tensor Forward(const Tensor& x, bool training) override;
  int64_t hidden_size() const override { return hidden_size_; }
  int64_t carry_size() const override { return hidden_size_; }
  void ForwardRaw(const float* x, int64_t t, float* carry, float* out,
                  RawScratch* scratch) const override;

 private:
  int64_t input_size_;
  int64_t hidden_size_;
  Tensor w_ih_;
  Tensor w_hh_;
  Tensor bias_;
};

/// Single-layer LSTM with the standard i,f,g,o gate layout.
class LstmEncoder : public SequenceEncoder {
 public:
  LstmEncoder(int64_t input_size, int64_t hidden_size, common::Rng& rng);

  Tensor Forward(const Tensor& x, bool training) override;
  int64_t hidden_size() const override { return hidden_size_; }
  int64_t carry_size() const override { return 2 * hidden_size_; }
  void ForwardRaw(const float* x, int64_t t, float* carry, float* out,
                  RawScratch* scratch) const override;

 private:
  int64_t input_size_;
  int64_t hidden_size_;
  Tensor w_ih_;  // {in, 4H}
  Tensor w_hh_;  // {H, 4H}
  Tensor bias_;  // {1, 4H}
};

/// Single-layer GRU (reset/update/new-gate layout r,z,n).
class GruEncoder : public SequenceEncoder {
 public:
  GruEncoder(int64_t input_size, int64_t hidden_size, common::Rng& rng);

  Tensor Forward(const Tensor& x, bool training) override;
  int64_t hidden_size() const override { return hidden_size_; }
  int64_t carry_size() const override { return hidden_size_; }
  void ForwardRaw(const float* x, int64_t t, float* carry, float* out,
                  RawScratch* scratch) const override;

 private:
  int64_t input_size_;
  int64_t hidden_size_;
  Tensor w_ih_;  // {in, 3H}
  Tensor w_hh_;  // {H, 3H}
  Tensor b_ih_;  // {1, 3H}
  Tensor b_hh_;  // {1, 3H}
};

}  // namespace adamove::nn

#endif  // ADAMOVE_NN_RNN_H_
