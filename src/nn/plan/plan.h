#ifndef ADAMOVE_NN_PLAN_PLAN_H_
#define ADAMOVE_NN_PLAN_PLAN_H_

#include <cstdint>
#include <vector>

#include "nn/tensor.h"

namespace adamove::nn::plan {

/// Static forward-plan IR (DESIGN.md §14).
///
/// A CompiledPlan is the encoder inference graph traced once per model
/// shape into a topologically ordered op list over flat float buffers. The
/// graph-walking path (nn/ops.cc) stays the bit-identical reference; a plan
/// re-expresses exactly the same arithmetic — the same scalar loops for the
/// backend-independent ops, the same KernelTable entry points for the
/// backend-dispatched ones — minus the per-request TensorImpl/shared_ptr
/// traffic. Intermediates are lifetime-analyzed and packed into one
/// pre-sized arena so executing a plan performs zero heap allocations.
///
/// A plan covers `seq_len` recurrent steps that resume from a caller-owned
/// carry (every layer's state before the first step) and leave the state
/// after the last step in a second caller buffer. A full encode is the
/// zero-carry case; a continuation feeds the carry a previous run left.

using ValueId = int32_t;
inline constexpr ValueId kNoValue = -1;

enum class ValueKind : uint8_t {
  kWeight,    // borrows the model tensor's storage (no copy)
  kTemp,      // lives in the arena at a planner-assigned offset
  kOutput,    // the caller-provided output buffer
  kCarryIn,   // the caller's recurrent state before step 0 (read-only)
  kCarryOut,  // the caller's buffer for the state after the last step
};

struct Value {
  ValueKind kind = ValueKind::kTemp;
  int64_t elems = 0;
  const float* weight_data = nullptr;  // kWeight
  int64_t arena_offset = -1;           // kTemp, assigned by Finalize
  // Live interval in op indices (closed on both ends), from lifetime
  // analysis. Two temps may share arena bytes only if their intervals are
  // disjoint; the closed-interval rule also forbids an op's input aliasing
  // its freshly defined output.
  int32_t first_def = -1;
  int32_t last_use = -1;
};

/// Op kinds mirror the graph ops they were traced from, split into two
/// arithmetic classes (DESIGN.md §13):
///  - backend-independent scalar loops, replicated verbatim from ops.cc
///    (kAdd, kMul, kScalarMul, kScalarAdd, kTanh, kSigmoid) and the
///    kGather/kCopy copies;
///  - backend-dispatched kernels, invoked through the same KernelTable
///    entry points as graph mode (kMatMul -> MatMulNN, kAddTanh ->
///    BiasTanh, kAddSigmoid -> BiasSigmoid), so plan-vs-graph bit-identity
///    holds per backend.
enum class OpKind : uint8_t {
  kCopy,        // dst[0..cols) = a[0..cols), bit-exact (carry-out state)
  kGather,      // embedding-lookup rows scattered into strided dst columns
  kMatMul,      // dst = a {rows,k} x b {k,cols}; zero-fill + MatMulNN
  kAdd,         // dst = a + b, optional row-broadcast of b (ops.cc loop)
  kMul,         // dst = a * b elementwise over cols elems
  kScalarMul,   // dst = a * scalar
  kScalarAdd,   // dst = a + scalar
  kTanh,        // dst = tanh(a), scalar loop (backend-independent)
  kSigmoid,     // dst = 1/(1+exp(-a)), scalar loop (backend-independent)
  kAddTanh,     // dst = tanh(a + b) via kernels::BiasTanh
  kAddSigmoid,  // dst = sigmoid(a + b) via kernels::BiasSigmoid
};

struct Op {
  OpKind kind;
  ValueId a = kNoValue;
  ValueId b = kNoValue;
  ValueId dst = kNoValue;
  // Element offsets into the respective values: plans use offsets where
  // graph mode materializes Row/SliceCols copies (every slice the encoder
  // traces take is row-contiguous, so an offset fully describes it).
  int64_t a_off = 0;
  int64_t b_off = 0;
  int64_t dst_off = 0;
  // Shape fields. Elementwise ops use rows=1, cols=element count. kMatMul
  // uses {rows, k} x {k, cols}. kGather uses rows=lookups, cols=row width,
  // k=table rows (bounds check), dst_stride=dst row stride.
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t k = 0;
  int64_t dst_stride = 0;
  int32_t index_input = -1;  // kGather: which int64 input array
  bool broadcast = false;    // kAdd/kAddTanh/kAddSigmoid row-broadcast of b
  float scalar = 0.0f;       // kScalarMul/kScalarAdd
};

struct CompiledPlan {
  std::vector<Value> values;
  std::vector<Op> ops;
  int64_t arena_elems = 0;  // floats; executor sizes its arena once
  ValueId output = kNoValue;
  int64_t out_rows = 0;
  int64_t out_cols = 0;
  int32_t num_index_inputs = 0;
  int64_t seq_len = 0;  // the T this plan was traced for (cache key)
  // The carry buffers: per recurrent layer, in trace order, h (hidden
  // floats) then, for an LSTM, c. Both kinds hold carry_elems floats.
  ValueId carry_in = kNoValue;
  ValueId carry_out = kNoValue;
  int64_t carry_elems = 0;
  // Raw data pointers of every registered weight, in registration order.
  // Plans borrow weight storage; a checkpoint hot-swap that reallocates a
  // tensor's buffer changes its pointer, so comparing this fingerprint
  // against the live model detects staleness (see core::ForwardPlanner).
  std::vector<const float*> weight_fingerprint;
};

/// Records values and ops during a trace, then finalizes lifetimes and
/// arena placement. Build-time only — the builder allocates freely; the
/// executor that runs the finished plan does not.
class PlanBuilder {
 public:
  /// Registers a borrowed model weight (adds it to the fingerprint).
  ValueId Weight(const Tensor& t);
  /// Registers an arena intermediate of `elems` floats.
  ValueId Temp(int64_t elems);
  /// Registers the external {rows, cols} output buffer (once per plan).
  ValueId Output(int64_t rows, int64_t cols);
  /// Registers the caller's carry-in and carry-out buffers of `elems`
  /// floats each (once per plan).
  void Carry(int64_t elems, ValueId* in, ValueId* out);
  /// Declares the next int64 index-input array slot (embedding lookups).
  int32_t IndexInput();

  void Copy(ValueId a, int64_t a_off, ValueId dst, int64_t dst_off,
            int64_t elems);
  void Gather(int32_t index_input, ValueId table, int64_t table_rows,
              int64_t table_cols, int64_t lookups, ValueId dst,
              int64_t dst_col, int64_t dst_stride);
  void MatMul(ValueId a, int64_t a_off, ValueId b, ValueId dst,
              int64_t dst_off, int64_t n, int64_t k, int64_t m);
  void Add(ValueId a, int64_t a_off, ValueId b, int64_t b_off, ValueId dst,
           int64_t dst_off, int64_t rows, int64_t cols, bool broadcast);
  void Mul(ValueId a, int64_t a_off, ValueId b, int64_t b_off, ValueId dst,
           int64_t dst_off, int64_t elems);
  void ScalarMul(ValueId a, int64_t a_off, ValueId dst, int64_t dst_off,
                 int64_t elems, float s);
  void ScalarAdd(ValueId a, int64_t a_off, ValueId dst, int64_t dst_off,
                 int64_t elems, float s);
  void Tanh(ValueId a, int64_t a_off, ValueId dst, int64_t dst_off,
            int64_t elems);
  void Sigmoid(ValueId a, int64_t a_off, ValueId dst, int64_t dst_off,
               int64_t elems);
  void AddTanh(ValueId a, int64_t a_off, ValueId b, int64_t b_off, ValueId dst,
               int64_t dst_off, int64_t rows, int64_t cols, bool broadcast);
  void AddSigmoid(ValueId a, int64_t a_off, ValueId b, int64_t b_off,
                  ValueId dst, int64_t dst_off, int64_t rows, int64_t cols,
                  bool broadcast);

  /// Runs lifetime analysis over the recorded ops, packs temps into the
  /// arena (greedy size-descending first-fit over disjoint live intervals,
  /// offsets aligned to 64 bytes), and returns the finished plan. The
  /// builder is consumed.
  CompiledPlan Finalize() &&;

 private:
  void Push(Op op);

  CompiledPlan plan_;
};

}  // namespace adamove::nn::plan

#endif  // ADAMOVE_NN_PLAN_PLAN_H_
