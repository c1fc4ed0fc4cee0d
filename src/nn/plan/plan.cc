#include "nn/plan/plan.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace adamove::nn::plan {

namespace {

// Arena offsets are rounded to the AlignedBuffer cache-line contract so
// every temp's base pointer gets the same alignment class as a standalone
// buffer head (a performance contract, not a correctness one).
constexpr int64_t kAlignElems = 16;  // 16 floats = 64 bytes

int64_t AlignUp(int64_t n) {
  return (n + kAlignElems - 1) / kAlignElems * kAlignElems;
}

bool Intersects(const Value& a, const Value& b) {
  return a.first_def <= b.last_use && b.first_def <= a.last_use;
}

}  // namespace

ValueId PlanBuilder::Weight(const Tensor& t) {
  ADAMOVE_CHECK(t.defined());
  Value v;
  v.kind = ValueKind::kWeight;
  v.elems = static_cast<int64_t>(t.data().size());
  v.weight_data = t.data().data();
  plan_.values.push_back(v);
  plan_.weight_fingerprint.push_back(v.weight_data);
  return static_cast<ValueId>(plan_.values.size() - 1);
}

ValueId PlanBuilder::Temp(int64_t elems) {
  ADAMOVE_CHECK_GT(elems, 0);
  Value v;
  v.kind = ValueKind::kTemp;
  v.elems = elems;
  plan_.values.push_back(v);
  return static_cast<ValueId>(plan_.values.size() - 1);
}

ValueId PlanBuilder::Output(int64_t rows, int64_t cols) {
  ADAMOVE_CHECK_EQ(plan_.output, kNoValue);  // one output per plan
  Value v;
  v.kind = ValueKind::kOutput;
  v.elems = rows * cols;
  plan_.values.push_back(v);
  plan_.output = static_cast<ValueId>(plan_.values.size() - 1);
  plan_.out_rows = rows;
  plan_.out_cols = cols;
  return plan_.output;
}

void PlanBuilder::Carry(int64_t elems, ValueId* in, ValueId* out) {
  ADAMOVE_CHECK_EQ(plan_.carry_in, kNoValue);  // one carry pair per plan
  ADAMOVE_CHECK_GT(elems, 0);
  Value v;
  v.elems = elems;
  v.kind = ValueKind::kCarryIn;
  plan_.values.push_back(v);
  plan_.carry_in = static_cast<ValueId>(plan_.values.size() - 1);
  v.kind = ValueKind::kCarryOut;
  plan_.values.push_back(v);
  plan_.carry_out = static_cast<ValueId>(plan_.values.size() - 1);
  plan_.carry_elems = elems;
  *in = plan_.carry_in;
  *out = plan_.carry_out;
}

int32_t PlanBuilder::IndexInput() { return plan_.num_index_inputs++; }

void PlanBuilder::Push(Op op) {
  const int32_t idx = static_cast<int32_t>(plan_.ops.size());
  for (ValueId id : {op.a, op.b, op.dst}) {
    if (id == kNoValue) continue;
    ADAMOVE_CHECK_LT(static_cast<size_t>(id), plan_.values.size());
    Value& v = plan_.values[static_cast<size_t>(id)];
    if (v.first_def < 0) v.first_def = idx;
    v.last_use = idx;
  }
  ADAMOVE_CHECK(op.dst != kNoValue);
  const ValueKind dst_kind = plan_.values[static_cast<size_t>(op.dst)].kind;
  ADAMOVE_CHECK(dst_kind != ValueKind::kWeight &&
                dst_kind != ValueKind::kCarryIn);
  plan_.ops.push_back(op);
}

void PlanBuilder::Copy(ValueId a, int64_t a_off, ValueId dst, int64_t dst_off,
                       int64_t elems) {
  Op op;
  op.kind = OpKind::kCopy;
  op.a = a;
  op.dst = dst;
  op.a_off = a_off;
  op.dst_off = dst_off;
  op.rows = 1;
  op.cols = elems;
  Push(op);
}

void PlanBuilder::Gather(int32_t index_input, ValueId table,
                         int64_t table_rows, int64_t table_cols,
                         int64_t lookups, ValueId dst, int64_t dst_col,
                         int64_t dst_stride) {
  ADAMOVE_CHECK_GE(index_input, 0);
  ADAMOVE_CHECK_LT(index_input, plan_.num_index_inputs);
  Op op;
  op.kind = OpKind::kGather;
  op.a = table;
  op.dst = dst;
  op.dst_off = dst_col;
  op.rows = lookups;
  op.cols = table_cols;
  op.k = table_rows;
  op.dst_stride = dst_stride;
  op.index_input = index_input;
  Push(op);
}

void PlanBuilder::MatMul(ValueId a, int64_t a_off, ValueId b, ValueId dst,
                         int64_t dst_off, int64_t n, int64_t k, int64_t m) {
  Op op;
  op.kind = OpKind::kMatMul;
  op.a = a;
  op.b = b;
  op.dst = dst;
  op.a_off = a_off;
  op.dst_off = dst_off;
  op.rows = n;
  op.cols = m;
  op.k = k;
  Push(op);
}

void PlanBuilder::Add(ValueId a, int64_t a_off, ValueId b, int64_t b_off,
                      ValueId dst, int64_t dst_off, int64_t rows, int64_t cols,
                      bool broadcast) {
  Op op;
  op.kind = OpKind::kAdd;
  op.a = a;
  op.b = b;
  op.dst = dst;
  op.a_off = a_off;
  op.b_off = b_off;
  op.dst_off = dst_off;
  op.rows = rows;
  op.cols = cols;
  op.broadcast = broadcast;
  Push(op);
}

void PlanBuilder::Mul(ValueId a, int64_t a_off, ValueId b, int64_t b_off,
                      ValueId dst, int64_t dst_off, int64_t elems) {
  Op op;
  op.kind = OpKind::kMul;
  op.a = a;
  op.b = b;
  op.dst = dst;
  op.a_off = a_off;
  op.b_off = b_off;
  op.dst_off = dst_off;
  op.rows = 1;
  op.cols = elems;
  Push(op);
}

void PlanBuilder::ScalarMul(ValueId a, int64_t a_off, ValueId dst,
                            int64_t dst_off, int64_t elems, float s) {
  Op op;
  op.kind = OpKind::kScalarMul;
  op.a = a;
  op.dst = dst;
  op.a_off = a_off;
  op.dst_off = dst_off;
  op.rows = 1;
  op.cols = elems;
  op.scalar = s;
  Push(op);
}

void PlanBuilder::ScalarAdd(ValueId a, int64_t a_off, ValueId dst,
                            int64_t dst_off, int64_t elems, float s) {
  Op op;
  op.kind = OpKind::kScalarAdd;
  op.a = a;
  op.dst = dst;
  op.a_off = a_off;
  op.dst_off = dst_off;
  op.rows = 1;
  op.cols = elems;
  op.scalar = s;
  Push(op);
}

void PlanBuilder::Tanh(ValueId a, int64_t a_off, ValueId dst, int64_t dst_off,
                       int64_t elems) {
  Op op;
  op.kind = OpKind::kTanh;
  op.a = a;
  op.dst = dst;
  op.a_off = a_off;
  op.dst_off = dst_off;
  op.rows = 1;
  op.cols = elems;
  Push(op);
}

void PlanBuilder::Sigmoid(ValueId a, int64_t a_off, ValueId dst,
                          int64_t dst_off, int64_t elems) {
  Op op;
  op.kind = OpKind::kSigmoid;
  op.a = a;
  op.dst = dst;
  op.a_off = a_off;
  op.dst_off = dst_off;
  op.rows = 1;
  op.cols = elems;
  Push(op);
}

void PlanBuilder::AddTanh(ValueId a, int64_t a_off, ValueId b, int64_t b_off,
                          ValueId dst, int64_t dst_off, int64_t rows,
                          int64_t cols, bool broadcast) {
  Op op;
  op.kind = OpKind::kAddTanh;
  op.a = a;
  op.b = b;
  op.dst = dst;
  op.a_off = a_off;
  op.b_off = b_off;
  op.dst_off = dst_off;
  op.rows = rows;
  op.cols = cols;
  op.broadcast = broadcast;
  Push(op);
}

void PlanBuilder::AddSigmoid(ValueId a, int64_t a_off, ValueId b,
                             int64_t b_off, ValueId dst, int64_t dst_off,
                             int64_t rows, int64_t cols, bool broadcast) {
  Op op;
  op.kind = OpKind::kAddSigmoid;
  op.a = a;
  op.b = b;
  op.dst = dst;
  op.a_off = a_off;
  op.b_off = b_off;
  op.dst_off = dst_off;
  op.rows = rows;
  op.cols = cols;
  op.broadcast = broadcast;
  Push(op);
}

CompiledPlan PlanBuilder::Finalize() && {
  ADAMOVE_CHECK(plan_.output != kNoValue);
  ADAMOVE_CHECK(!plan_.ops.empty());

  // Memory planning (the memonger-style sharing pass): each temp is live on
  // the closed op interval [first_def, last_use]; temps with disjoint
  // intervals may occupy the same arena bytes. Greedy first-fit in
  // size-descending order is the classic heuristic — big buffers claim low
  // offsets first, small step-local temps fill the gaps left between
  // lifetimes.
  std::vector<size_t> temps;
  for (size_t i = 0; i < plan_.values.size(); ++i) {
    if (plan_.values[i].kind == ValueKind::kTemp) {
      // A temp never touched by any op would have an open interval; the
      // tracers always define what they allocate.
      ADAMOVE_CHECK_GE(plan_.values[i].first_def, 0);
      temps.push_back(i);
    }
  }
  std::sort(temps.begin(), temps.end(), [this](size_t a, size_t b) {
    const Value& va = plan_.values[a];
    const Value& vb = plan_.values[b];
    if (va.elems != vb.elems) return va.elems > vb.elems;
    return a < b;  // deterministic tie-break
  });

  std::vector<size_t> placed;
  int64_t arena_end = 0;
  for (size_t id : temps) {
    Value& v = plan_.values[id];
    const int64_t need = AlignUp(v.elems);
    // Collect the occupied [start, end) ranges of lifetime-overlapping
    // placed temps, then scan for the lowest aligned gap that fits.
    std::vector<std::pair<int64_t, int64_t>> busy;
    for (size_t other : placed) {
      const Value& o = plan_.values[other];
      if (Intersects(v, o)) {
        busy.emplace_back(o.arena_offset, o.arena_offset + AlignUp(o.elems));
      }
    }
    std::sort(busy.begin(), busy.end());
    int64_t offset = 0;
    for (const auto& [start, end] : busy) {
      if (offset + need <= start) break;
      offset = std::max(offset, end);
    }
    v.arena_offset = offset;
    arena_end = std::max(arena_end, offset + need);
    placed.push_back(id);
  }
  plan_.arena_elems = arena_end;
  return std::move(plan_);
}

}  // namespace adamove::nn::plan
