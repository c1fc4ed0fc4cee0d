#include "nn/plan/encoder_trace.h"

#include <utility>

#include "common/check.h"
#include "nn/stacked.h"

namespace adamove::nn::plan {

namespace {

// Each tracer re-emits the corresponding Forward() from rnn.cc op for op:
// the same kernel choices, the same broadcast flags (ops.cc derives
// broadcast as `b.rows() == 1 && a.rows() > 1`), and plain offsets where
// graph mode materializes Row/SliceCols copies. Step-local temps are fresh
// SSA values each iteration; Finalize's lifetime analysis folds them back
// into a handful of arena slots.
//
// Where graph mode starts from Tensor::Zeros, step 0 reads the layer's
// slice of the carry-in buffer; after the last step the layer's state goes
// to the same slice of carry-out by an exact copy (or, for the LSTM cell,
// by the last step writing it there directly). A run over zero carry is
// therefore the graph walk itself, and a run over the carry a previous run
// left continues it: both backends are row-count invariant (DESIGN.md §13),
// so each new row gets the bits the full-window run would give it.

/// Where one layer's carry lives: `off` into the plan's carry buffers.
struct CarrySlot {
  ValueId in = kNoValue;
  ValueId out = kNoValue;
  int64_t off = 0;
};

// h_t = tanh(x_t W_ih + h_{t-1} W_hh + b) — rnn.cc RnnEncoder::Forward.
void TraceRnn(const RnnEncoder& rnn, PlanBuilder& b, ValueId x, int64_t t_len,
              ValueId dst, const CarrySlot& carry) {
  const int64_t in = rnn.input_size();
  const int64_t hs = rnn.hidden_size();
  const ValueId w_ih = b.Weight(rnn.w_ih());
  const ValueId w_hh = b.Weight(rnn.w_hh());
  const ValueId bias = b.Weight(rnn.bias());
  const ValueId mm_x = b.Temp(t_len * hs);
  b.MatMul(x, 0, w_ih, mm_x, 0, t_len, in, hs);
  const ValueId xw = b.Temp(t_len * hs);
  b.Add(mm_x, 0, bias, 0, xw, 0, t_len, hs, /*broadcast=*/t_len > 1);
  for (int64_t t = 0; t < t_len; ++t) {
    const ValueId hp = t == 0 ? carry.in : dst;
    const int64_t hp_off = t == 0 ? carry.off : (t - 1) * hs;
    const ValueId mm_h = b.Temp(hs);
    b.MatMul(hp, hp_off, w_hh, mm_h, 0, 1, hs, hs);
    b.AddTanh(xw, t * hs, mm_h, 0, dst, t * hs, 1, hs, /*broadcast=*/false);
  }
  b.Copy(dst, (t_len - 1) * hs, carry.out, carry.off, hs);
}

// Standard i,f,g,o LSTM — rnn.cc LstmEncoder::Forward. Carry: h, then c.
void TraceLstm(const LstmEncoder& lstm, PlanBuilder& b, ValueId x,
               int64_t t_len, ValueId dst, const CarrySlot& carry) {
  const int64_t in = lstm.input_size();
  const int64_t hs = lstm.hidden_size();
  const ValueId w_ih = b.Weight(lstm.w_ih());
  const ValueId w_hh = b.Weight(lstm.w_hh());
  const ValueId bias = b.Weight(lstm.bias());
  const ValueId mm_x = b.Temp(t_len * 4 * hs);
  b.MatMul(x, 0, w_ih, mm_x, 0, t_len, in, 4 * hs);
  const ValueId xw = b.Temp(t_len * 4 * hs);
  b.Add(mm_x, 0, bias, 0, xw, 0, t_len, 4 * hs, /*broadcast=*/t_len > 1);
  ValueId c_prev = carry.in;
  int64_t c_prev_off = carry.off + hs;
  for (int64_t t = 0; t < t_len; ++t) {
    const ValueId hp = t == 0 ? carry.in : dst;
    const int64_t hp_off = t == 0 ? carry.off : (t - 1) * hs;
    const ValueId mm_h = b.Temp(4 * hs);
    b.MatMul(hp, hp_off, w_hh, mm_h, 0, 1, hs, 4 * hs);
    const ValueId gates = b.Temp(4 * hs);
    b.Add(xw, t * 4 * hs, mm_h, 0, gates, 0, 1, 4 * hs, /*broadcast=*/false);
    const ValueId i = b.Temp(hs);
    b.Sigmoid(gates, 0, i, 0, hs);
    const ValueId f = b.Temp(hs);
    b.Sigmoid(gates, hs, f, 0, hs);
    const ValueId g = b.Temp(hs);
    b.Tanh(gates, 2 * hs, g, 0, hs);
    const ValueId o = b.Temp(hs);
    b.Sigmoid(gates, 3 * hs, o, 0, hs);
    const ValueId fc = b.Temp(hs);
    b.Mul(f, 0, c_prev, c_prev_off, fc, 0, hs);
    const ValueId ig = b.Temp(hs);
    b.Mul(i, 0, g, 0, ig, 0, hs);
    // The last step's cell state is the carry: written there directly.
    const bool last = t + 1 == t_len;
    const ValueId c = last ? carry.out : b.Temp(hs);
    const int64_t c_off = last ? carry.off + hs : 0;
    b.Add(fc, 0, ig, 0, c, c_off, 1, hs, /*broadcast=*/false);
    const ValueId tc = b.Temp(hs);
    b.Tanh(c, c_off, tc, 0, hs);
    b.Mul(o, 0, tc, 0, dst, t * hs, hs);
    c_prev = c;
    c_prev_off = c_off;
  }
  b.Copy(dst, (t_len - 1) * hs, carry.out, carry.off, hs);
}

// r,z,n GRU — rnn.cc GruEncoder::Forward, including the two-rounding
// (1 - z) computed as ScalarAdd(ScalarMul(z, -1), 1).
void TraceGru(const GruEncoder& gru, PlanBuilder& b, ValueId x, int64_t t_len,
              ValueId dst, const CarrySlot& carry) {
  const int64_t in = gru.input_size();
  const int64_t hs = gru.hidden_size();
  const ValueId w_ih = b.Weight(gru.w_ih());
  const ValueId w_hh = b.Weight(gru.w_hh());
  const ValueId b_ih = b.Weight(gru.b_ih());
  const ValueId b_hh = b.Weight(gru.b_hh());
  const ValueId mm_x = b.Temp(t_len * 3 * hs);
  b.MatMul(x, 0, w_ih, mm_x, 0, t_len, in, 3 * hs);
  const ValueId xw = b.Temp(t_len * 3 * hs);
  b.Add(mm_x, 0, b_ih, 0, xw, 0, t_len, 3 * hs, /*broadcast=*/t_len > 1);
  for (int64_t t = 0; t < t_len; ++t) {
    const ValueId hp = t == 0 ? carry.in : dst;
    const int64_t hp_off = t == 0 ? carry.off : (t - 1) * hs;
    const ValueId mm_h = b.Temp(3 * hs);
    b.MatMul(hp, hp_off, w_hh, mm_h, 0, 1, hs, 3 * hs);
    const ValueId hw = b.Temp(3 * hs);
    b.Add(mm_h, 0, b_hh, 0, hw, 0, 1, 3 * hs, /*broadcast=*/false);
    const ValueId r = b.Temp(hs);
    b.AddSigmoid(xw, t * 3 * hs, hw, 0, r, 0, 1, hs, /*broadcast=*/false);
    const ValueId z = b.Temp(hs);
    b.AddSigmoid(xw, t * 3 * hs + hs, hw, hs, z, 0, 1, hs,
                 /*broadcast=*/false);
    const ValueId rh = b.Temp(hs);
    b.Mul(r, 0, hw, 2 * hs, rh, 0, hs);
    const ValueId n = b.Temp(hs);
    b.AddTanh(xw, t * 3 * hs + 2 * hs, rh, 0, n, 0, 1, hs,
              /*broadcast=*/false);
    const ValueId zneg = b.Temp(hs);
    b.ScalarMul(z, 0, zneg, 0, hs, -1.0f);
    const ValueId omz = b.Temp(hs);
    b.ScalarAdd(zneg, 0, omz, 0, hs, 1.0f);
    const ValueId a1 = b.Temp(hs);
    b.Mul(omz, 0, n, 0, a1, 0, hs);
    const ValueId a2 = b.Temp(hs);
    b.Mul(z, 0, hp, hp_off, a2, 0, hs);
    b.Add(a1, 0, a2, 0, dst, t * hs, 1, hs, /*broadcast=*/false);
  }
  b.Copy(dst, (t_len - 1) * hs, carry.out, carry.off, hs);
}

// Floats of carry state `layer` needs (h, plus c for an LSTM), or -1 for an
// encoder the tracer does not know.
int64_t CarryElems(const SequenceEncoder& layer) {
  if (const auto* rnn = dynamic_cast<const RnnEncoder*>(&layer)) {
    return rnn->hidden_size();
  }
  if (const auto* lstm = dynamic_cast<const LstmEncoder*>(&layer)) {
    return 2 * lstm->hidden_size();
  }
  if (const auto* gru = dynamic_cast<const GruEncoder*>(&layer)) {
    return gru->hidden_size();
  }
  if (const auto* stacked = dynamic_cast<const StackedEncoder*>(&layer)) {
    int64_t total = 0;
    for (const auto& inner : stacked->layers()) {
      const int64_t n = CarryElems(*inner);
      if (n < 0) return -1;
      total += n;
    }
    return total;
  }
  return -1;  // transformer or future encoder
}

// Maps value `x` ({t_len, x_cols}) through `layer` into `dst`
// ({t_len, layer.hidden_size()}), its carry starting at `carry.off`.
// Returns false on an unknown encoder type (the trace is abandoned; callers
// fall back to graph mode).
bool TraceLayer(const SequenceEncoder& layer, PlanBuilder& b, ValueId x,
                int64_t x_cols, int64_t t_len, ValueId dst,
                const CarrySlot& carry) {
  if (const auto* rnn = dynamic_cast<const RnnEncoder*>(&layer)) {
    ADAMOVE_CHECK_EQ(x_cols, rnn->input_size());
    TraceRnn(*rnn, b, x, t_len, dst, carry);
    return true;
  }
  if (const auto* lstm = dynamic_cast<const LstmEncoder*>(&layer)) {
    ADAMOVE_CHECK_EQ(x_cols, lstm->input_size());
    TraceLstm(*lstm, b, x, t_len, dst, carry);
    return true;
  }
  if (const auto* gru = dynamic_cast<const GruEncoder*>(&layer)) {
    ADAMOVE_CHECK_EQ(x_cols, gru->input_size());
    TraceGru(*gru, b, x, t_len, dst, carry);
    return true;
  }
  if (const auto* stacked = dynamic_cast<const StackedEncoder*>(&layer)) {
    ValueId cur = x;
    int64_t cur_cols = x_cols;
    CarrySlot slot = carry;
    const auto& layers = stacked->layers();
    for (size_t i = 0; i < layers.size(); ++i) {
      const bool last = i + 1 == layers.size();
      const int64_t out_cols = layers[i]->hidden_size();
      const ValueId layer_dst = last ? dst : b.Temp(t_len * out_cols);
      if (!TraceLayer(*layers[i], b, cur, cur_cols, t_len, layer_dst, slot)) {
        return false;
      }
      slot.off += CarryElems(*layers[i]);
      cur = layer_dst;
      cur_cols = out_cols;
    }
    return true;
  }
  return false;  // transformer or future encoder: graph fallback
}

// Mirrors TraceLayer's Weight() registration order exactly.
bool CollectLayerWeights(const SequenceEncoder& layer,
                         std::vector<const float*>* out) {
  if (const auto* rnn = dynamic_cast<const RnnEncoder*>(&layer)) {
    out->push_back(rnn->w_ih().data().data());
    out->push_back(rnn->w_hh().data().data());
    out->push_back(rnn->bias().data().data());
    return true;
  }
  if (const auto* lstm = dynamic_cast<const LstmEncoder*>(&layer)) {
    out->push_back(lstm->w_ih().data().data());
    out->push_back(lstm->w_hh().data().data());
    out->push_back(lstm->bias().data().data());
    return true;
  }
  if (const auto* gru = dynamic_cast<const GruEncoder*>(&layer)) {
    out->push_back(gru->w_ih().data().data());
    out->push_back(gru->w_hh().data().data());
    out->push_back(gru->b_ih().data().data());
    out->push_back(gru->b_hh().data().data());
    return true;
  }
  if (const auto* stacked = dynamic_cast<const StackedEncoder*>(&layer)) {
    for (const auto& inner : stacked->layers()) {
      if (!CollectLayerWeights(*inner, out)) return false;
    }
    return true;
  }
  return false;
}

// Cursor-based variant of CollectLayerWeights that compares instead of
// collecting — no allocation, so it is safe inside zero-alloc scopes.
bool MatchLayerWeights(const SequenceEncoder& layer,
                       const float* const* fingerprint, size_t n,
                       size_t* cursor) {
  auto match = [&](const Tensor& t) {
    if (*cursor >= n) return false;
    return fingerprint[(*cursor)++] == t.data().data();
  };
  if (const auto* rnn = dynamic_cast<const RnnEncoder*>(&layer)) {
    return match(rnn->w_ih()) && match(rnn->w_hh()) && match(rnn->bias());
  }
  if (const auto* lstm = dynamic_cast<const LstmEncoder*>(&layer)) {
    return match(lstm->w_ih()) && match(lstm->w_hh()) && match(lstm->bias());
  }
  if (const auto* gru = dynamic_cast<const GruEncoder*>(&layer)) {
    return match(gru->w_ih()) && match(gru->w_hh()) && match(gru->b_ih()) &&
           match(gru->b_hh());
  }
  if (const auto* stacked = dynamic_cast<const StackedEncoder*>(&layer)) {
    for (const auto& inner : stacked->layers()) {
      if (!MatchLayerWeights(*inner, fingerprint, n, cursor)) return false;
    }
    return true;
  }
  return false;
}

}  // namespace

std::shared_ptr<const CompiledPlan> CompileEncoderForward(
    const std::vector<const Embedding*>& embeddings,
    const SequenceEncoder& seq, int64_t seq_len) {
  if (seq_len <= 0 || embeddings.empty()) return nullptr;
  const int64_t carry_elems = CarryElems(seq);
  if (carry_elems <= 0) return nullptr;
  PlanBuilder b;
  int64_t in_total = 0;
  for (const Embedding* e : embeddings) in_total += e->dim();

  // Index inputs and embedding tables, in caller order — graph mode's
  // EmbeddingLookup + ConcatCols becomes strided gathers into one x buffer
  // (both are pure copies, so values are identical).
  std::vector<int32_t> inputs;
  std::vector<ValueId> tables;
  for (const Embedding* e : embeddings) {
    inputs.push_back(b.IndexInput());
    tables.push_back(b.Weight(e->weight()));
  }
  const ValueId x = b.Temp(seq_len * in_total);
  const ValueId out = b.Output(seq_len, seq.hidden_size());
  int64_t col = 0;
  for (size_t i = 0; i < embeddings.size(); ++i) {
    b.Gather(inputs[i], tables[i], embeddings[i]->num_embeddings(),
             embeddings[i]->dim(), seq_len, x, col, in_total);
    col += embeddings[i]->dim();
  }
  CarrySlot carry;
  b.Carry(carry_elems, &carry.in, &carry.out);
  if (!TraceLayer(seq, b, x, in_total, seq_len, out, carry)) return nullptr;
  CompiledPlan plan = std::move(b).Finalize();
  plan.seq_len = seq_len;
  return std::make_shared<const CompiledPlan>(std::move(plan));
}

std::vector<const float*> EncoderWeightPointers(
    const std::vector<const Embedding*>& embeddings,
    const SequenceEncoder& seq) {
  std::vector<const float*> out;
  for (const Embedding* e : embeddings) {
    out.push_back(e->weight().data().data());
  }
  if (!CollectLayerWeights(seq, &out)) out.clear();
  return out;
}

bool EncoderWeightsMatch(const std::vector<const Embedding*>& embeddings,
                         const SequenceEncoder& seq,
                         const float* const* fingerprint, size_t n) {
  size_t cursor = 0;
  for (const Embedding* e : embeddings) {
    if (cursor >= n) return false;
    if (fingerprint[cursor++] != e->weight().data().data()) return false;
  }
  if (!MatchLayerWeights(seq, fingerprint, n, &cursor)) return false;
  return cursor == n;
}

}  // namespace adamove::nn::plan
