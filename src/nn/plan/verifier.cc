#include "nn/plan/verifier.h"

#include <algorithm>
#include <string>
#include <vector>

namespace adamove::nn::plan {

namespace {

// Mirrors the packer's slot granularity (plan.cc): offsets are multiples of
// 16 floats = 64 bytes, the AlignedBuffer cache-line contract.
constexpr int64_t kAlignElems = 16;

std::string Str(int64_t v) { return std::to_string(v); }

std::string ValueRef(ValueId id) { return "value " + Str(id); }

std::string OpRef(int32_t idx, const Op& op) {
  return "op " + Str(idx) + " (" + OpKindName(op.kind) + ")";
}

VerifyResult Fail(const char* check, const std::string& detail) {
  VerifyResult r;
  r.ok = false;
  r.message = std::string("plan-verify[") + check + "]: " + detail;
  return r;
}

/// One half-open element range [lo, hi) of a value.
struct Range {
  int64_t lo = 0;
  int64_t hi = 0;
};

/// Per-value verifier scratch, packed into one 32-byte record so the op
/// walk touches a single cache line per operand: the defined-range set
/// (single definition + definition-before-use queries) plus the derived
/// touch interval. Nearly every value in a real plan is defined as ONE
/// contiguous range (temps written once; output rows appended in order
/// merge as they land), so the set stays in the inline `single` range; the
/// rare fragmented values — strided gather destinations mid-fill — spill
/// to a side pool of sorted disjoint range vectors. This sits on the
/// verify-per-compile hot path the bench_plan <10%-of-compile gate prices.
struct ValueScratch {
  uint8_t mode = 0;         // defined set: 0 empty, 1 single, 2 spilled
  int32_t spill = -1;       // index into the spill pool when mode == 2
  int32_t first_touch = -1;
  int32_t last_touch = -1;
  Range single{};
};

using SpillPool = std::vector<std::vector<Range>>;

bool SetOverlaps(const ValueScratch& s, const SpillPool& spills, int64_t lo,
                 int64_t hi) {
  if (s.mode == 0) return false;
  if (s.mode == 1) return lo < s.single.hi && s.single.lo < hi;
  const std::vector<Range>& ranges = spills[static_cast<size_t>(s.spill)];
  // First range starting at or after lo; the one before it is the only
  // candidate overlapping from the left.
  auto it =
      std::lower_bound(ranges.begin(), ranges.end(), lo,
                       [](const Range& r, int64_t v) { return r.lo < v; });
  if (it != ranges.begin() && std::prev(it)->hi > lo) return true;
  return it != ranges.end() && it->lo < hi;
}

bool SetCovers(const ValueScratch& s, const SpillPool& spills, int64_t lo,
               int64_t hi) {
  if (s.mode == 0) return false;
  if (s.mode == 1) return s.single.lo <= lo && s.single.hi >= hi;
  const std::vector<Range>& ranges = spills[static_cast<size_t>(s.spill)];
  auto it =
      std::upper_bound(ranges.begin(), ranges.end(), lo,
                       [](int64_t v, const Range& r) { return v < r.lo; });
  if (it == ranges.begin()) return false;
  const Range& prev = *std::prev(it);
  return prev.lo <= lo && prev.hi >= hi;
}

/// Inserts [lo, hi), merging adjacent ranges. Caller checks SetOverlaps
/// first; double insertion is a verifier bug, not a plan property.
void SetInsert(ValueScratch* s, SpillPool* spills, int64_t lo, int64_t hi) {
  if (s->mode == 0) {
    s->single = {lo, hi};
    s->mode = 1;
    return;
  }
  if (s->mode == 1) {
    if (hi == s->single.lo) {
      s->single.lo = lo;
      return;
    }
    if (lo == s->single.hi) {
      s->single.hi = hi;
      return;
    }
    // Genuinely fragmented: spill to a sorted vector in the pool.
    s->spill = static_cast<int32_t>(spills->size());
    spills->emplace_back();
    std::vector<Range>& ranges = spills->back();
    if (lo < s->single.lo) {
      ranges.push_back({lo, hi});
      ranges.push_back(s->single);
    } else {
      ranges.push_back(s->single);
      ranges.push_back({lo, hi});
    }
    s->mode = 2;
    return;
  }
  std::vector<Range>& ranges = (*spills)[static_cast<size_t>(s->spill)];
  auto it =
      std::lower_bound(ranges.begin(), ranges.end(), lo,
                       [](const Range& r, int64_t v) { return r.lo < v; });
  if (it != ranges.begin() && std::prev(it)->hi == lo) {
    // Extend the left neighbor; maybe fuse with the right one too.
    auto prev = std::prev(it);
    prev->hi = hi;
    if (it != ranges.end() && it->lo == hi) {
      prev->hi = it->hi;
      ranges.erase(it);
    }
    return;
  }
  if (it != ranges.end() && it->lo == hi) {
    it->lo = lo;
    return;
  }
  ranges.insert(it, Range{lo, hi});
}

/// The element extents one op touches, re-derived from its kind and shape
/// fields — the verifier's independent model of the executor's pointer
/// arithmetic. At most two reads; writes are `w_rows` rows of `w_cols`
/// elements every `w_stride` (contiguous ops are the one-row case), kept as
/// a descriptor rather than materialized ranges: this sits on the
/// verify-per-compile hot path the bench_plan <10%-of-compile gate prices.
struct OpAccess {
  ValueId read_v[2] = {kNoValue, kNoValue};
  Range read_r[2] = {};
  int num_reads = 0;
  int64_t w_base = 0;
  int64_t w_rows = 1;
  int64_t w_stride = 0;  // row pitch; irrelevant when w_rows == 1
  int64_t w_cols = 0;    // width of each written row
};

// Derives `access` for ops[idx], checking the shape fields themselves
// (positive extents, non-negative offsets, gather stride/table geometry).
// Returns false with *fail set on malformed fields; the clean path builds
// no VerifyResult (and thus no std::string) at all. Force-inlined: the
// clean path is a dozen instructions, and the out-of-line call (argument
// spills + re-loads of `access` every op) measurably dominates it.
[[gnu::always_inline]] inline bool DeriveAccess(const CompiledPlan& plan,
                                                int32_t idx, OpAccess* access,
                                                VerifyResult* fail) {
  const Op& op = plan.ops[static_cast<size_t>(idx)];
  access->num_reads = 0;
  access->w_rows = 1;
  access->w_stride = 0;
  // Failure paths only — never built on the clean path.
  const auto where = [&] { return OpRef(idx, op); };
  const auto shape_fail = [&](std::string detail) {
    *fail = Fail("shape", where() + std::move(detail));
    return false;
  };
  if (op.a_off < 0 || op.b_off < 0 || op.dst_off < 0) {
    return shape_fail(": negative element offset");
  }
  access->w_base = op.dst_off;
  auto read = [&](ValueId v, int64_t lo, int64_t n) {
    access->read_v[access->num_reads] = v;
    access->read_r[access->num_reads] = {lo, lo + n};
    ++access->num_reads;
  };
  switch (op.kind) {
    case OpKind::kGather: {
      if (op.rows <= 0 || op.cols <= 0 || op.k <= 0) {
        return shape_fail(": rows, cols, k must be > 0");
      }
      if (op.index_input < 0 || op.index_input >= plan.num_index_inputs) {
        return shape_fail(": index input " + Str(op.index_input) +
                          " outside [0, " + Str(plan.num_index_inputs) + ")");
      }
      if (op.dst_stride < op.cols) {
        return shape_fail(": dst stride " + Str(op.dst_stride) +
                          " narrower than row width " + Str(op.cols));
      }
      // The gathered row is data-dependent (run-time bounds check against
      // k); statically the whole {k, cols} table is the read extent.
      read(op.a, 0, op.k * op.cols);
      access->w_rows = op.rows;
      access->w_stride = op.dst_stride;
      access->w_cols = op.cols;
      return true;
    }
    case OpKind::kMatMul:
      if (op.rows <= 0 || op.cols <= 0 || op.k <= 0) {
        return shape_fail(": rows, cols, k must be > 0");
      }
      read(op.a, op.a_off, op.rows * op.k);
      read(op.b, op.b_off, op.k * op.cols);
      access->w_cols = op.rows * op.cols;
      return true;
    case OpKind::kAdd:
    case OpKind::kAddTanh:
    case OpKind::kAddSigmoid:
      if (op.rows <= 0 || op.cols <= 0) {
        return shape_fail(": rows and cols must be > 0");
      }
      read(op.a, op.a_off, op.rows * op.cols);
      read(op.b, op.b_off, (op.broadcast ? 1 : op.rows) * op.cols);
      access->w_cols = op.rows * op.cols;
      return true;
    case OpKind::kMul:
      if (op.cols <= 0) return shape_fail(": cols must be > 0");
      read(op.a, op.a_off, op.cols);
      read(op.b, op.b_off, op.cols);
      access->w_cols = op.cols;
      return true;
    case OpKind::kCopy:
    case OpKind::kScalarMul:
    case OpKind::kScalarAdd:
    case OpKind::kTanh:
    case OpKind::kSigmoid:
      if (op.cols <= 0) return shape_fail(": cols must be > 0");
      read(op.a, op.a_off, op.cols);
      access->w_cols = op.cols;
      return true;
  }
  return shape_fail(": unknown op kind");
}

// Every op kind consumes input a; these also consume b. An unused slot must
// stay kNoValue so a stray id cannot smuggle in an unchecked dependency.
bool UsesB(OpKind kind) {
  switch (kind) {
    case OpKind::kMatMul:
    case OpKind::kAdd:
    case OpKind::kMul:
    case OpKind::kAddTanh:
    case OpKind::kAddSigmoid:
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kCopy: return "Copy";
    case OpKind::kGather: return "Gather";
    case OpKind::kMatMul: return "MatMul";
    case OpKind::kAdd: return "Add";
    case OpKind::kMul: return "Mul";
    case OpKind::kScalarMul: return "ScalarMul";
    case OpKind::kScalarAdd: return "ScalarAdd";
    case OpKind::kTanh: return "Tanh";
    case OpKind::kSigmoid: return "Sigmoid";
    case OpKind::kAddTanh: return "AddTanh";
    case OpKind::kAddSigmoid: return "AddSigmoid";
  }
  return "?";
}

VerifyResult VerifyPlan(const CompiledPlan& plan) {
  const int64_t num_values = static_cast<int64_t>(plan.values.size());
  const int32_t num_ops = static_cast<int32_t>(plan.ops.size());

  // --- 1. structure -------------------------------------------------------
  if (num_ops == 0) return Fail("structure", "empty op list");
  if (plan.num_index_inputs < 0) {
    return Fail("structure", "negative num_index_inputs");
  }
  if (plan.arena_elems < 0) return Fail("structure", "negative arena size");
  if (plan.output < 0 || plan.output >= num_values) {
    return Fail("output", "output id " + Str(plan.output) +
                              " outside [0, " + Str(num_values) + ")");
  }
  if (plan.out_rows <= 0 || plan.out_cols <= 0) {
    return Fail("output", "non-positive output shape {" + Str(plan.out_rows) +
                              ", " + Str(plan.out_cols) + "}");
  }

  // --- 2. per-value checks (kinds, weights, arena placement) -------------
  int64_t weight_count = 0;
  for (int64_t i = 0; i < num_values; ++i) {
    const Value& v = plan.values[static_cast<size_t>(i)];
    if (v.elems <= 0) {
      return Fail("value", ValueRef(static_cast<ValueId>(i)) +
                               ": non-positive size " + Str(v.elems));
    }
    switch (v.kind) {
      case ValueKind::kWeight: {
        if (v.weight_data == nullptr) {
          return Fail("weight", ValueRef(static_cast<ValueId>(i)) +
                                    ": null weight data");
        }
        const size_t slot = static_cast<size_t>(weight_count);
        if (slot >= plan.weight_fingerprint.size()) {
          return Fail("fingerprint",
                      ValueRef(static_cast<ValueId>(i)) +
                          ": weight slot " + Str(weight_count) +
                          " not covered by the fingerprint (size " +
                          Str(static_cast<int64_t>(
                              plan.weight_fingerprint.size())) +
                          ")");
        }
        if (plan.weight_fingerprint[slot] != v.weight_data) {
          return Fail("fingerprint",
                      ValueRef(static_cast<ValueId>(i)) +
                          ": fingerprint slot " + Str(weight_count) +
                          " does not match the weight's data pointer");
        }
        ++weight_count;
        break;
      }
      case ValueKind::kTemp: {
        if (v.arena_offset < 0) {
          return Fail("arena-bounds", ValueRef(static_cast<ValueId>(i)) +
                                          ": unplaced temp (offset " +
                                          Str(v.arena_offset) + ")");
        }
        if (v.arena_offset % kAlignElems != 0) {
          return Fail("arena-align",
                      ValueRef(static_cast<ValueId>(i)) + ": offset " +
                          Str(v.arena_offset) + " not " +
                          Str(kAlignElems * 4) + "-byte aligned");
        }
        if (v.arena_offset + v.elems > plan.arena_elems) {
          return Fail("arena-bounds",
                      ValueRef(static_cast<ValueId>(i)) + ": [" +
                          Str(v.arena_offset) + ", " +
                          Str(v.arena_offset + v.elems) +
                          ") exceeds arena size " + Str(plan.arena_elems));
        }
        if (v.first_def < 0 || v.last_use < v.first_def ||
            v.last_use >= num_ops) {
          return Fail("interval",
                      ValueRef(static_cast<ValueId>(i)) +
                          ": malformed live interval [" + Str(v.first_def) +
                          ", " + Str(v.last_use) + "]");
        }
        break;
      }
      case ValueKind::kCarryIn:
      case ValueKind::kCarryOut: {
        const bool in = v.kind == ValueKind::kCarryIn;
        if (i != (in ? plan.carry_in : plan.carry_out)) {
          return Fail("carry", ValueRef(static_cast<ValueId>(i)) +
                                   (in ? ": second carry-in value"
                                       : ": second carry-out value"));
        }
        if (v.elems != plan.carry_elems) {
          return Fail("carry", ValueRef(static_cast<ValueId>(i)) + ": " +
                                   Str(v.elems) + " elems, carry_elems is " +
                                   Str(plan.carry_elems));
        }
        // Caller buffers hold no arena bytes: a placed carry would alias
        // whatever temps the packer put there.
        if (v.arena_offset != -1) {
          return Fail("carry", ValueRef(static_cast<ValueId>(i)) +
                                   ": caller carry buffer placed in the "
                                   "arena at offset " +
                                   Str(v.arena_offset));
        }
        break;
      }
      case ValueKind::kOutput: {
        if (i != plan.output) {
          return Fail("output", "second kOutput " +
                                    ValueRef(static_cast<ValueId>(i)) +
                                    " (plan output is " + Str(plan.output) +
                                    ")");
        }
        if (v.elems != plan.out_rows * plan.out_cols) {
          return Fail("output", "output size " + Str(v.elems) +
                                    " != out_rows*out_cols = " +
                                    Str(plan.out_rows * plan.out_cols));
        }
        break;
      }
    }
  }
  if (plan.values[static_cast<size_t>(plan.output)].kind !=
      ValueKind::kOutput) {
    return Fail("output", "output id " + Str(plan.output) +
                              " is not a kOutput value");
  }
  // The carry ids name the carry values (both absent without a carry).
  const auto names = [&](ValueId id, ValueKind kind) {
    if (plan.carry_elems == 0) return id == kNoValue;
    return id >= 0 && id < num_values &&
           plan.values[static_cast<size_t>(id)].kind == kind;
  };
  if (plan.carry_elems < 0 || !names(plan.carry_in, ValueKind::kCarryIn) ||
      !names(plan.carry_out, ValueKind::kCarryOut)) {
    return Fail("carry", "carry ids {" + Str(plan.carry_in) + ", " +
                             Str(plan.carry_out) +
                             "} do not name the carry buffers of " +
                             Str(plan.carry_elems) + " elems");
  }
  if (static_cast<size_t>(weight_count) != plan.weight_fingerprint.size()) {
    return Fail("fingerprint",
                "fingerprint lists " +
                    Str(static_cast<int64_t>(plan.weight_fingerprint.size())) +
                    " pointers but the plan has " + Str(weight_count) +
                    " weights");
  }

  // --- 3. op walk: SSA + shape/bounds + alias freedom ---------------------
  // Defined ranges + derived touch interval per value, one record each.
  std::vector<ValueScratch> scratch(static_cast<size_t>(num_values));
  SpillPool spills;
  // Temps in order of first touch — ops are already topologically ordered,
  // so appending on first touch yields the birth-sorted sequence the
  // liveness sweep (pass 5) needs without a per-verify sort.
  std::vector<ValueId> birth_order;
  birth_order.reserve(static_cast<size_t>(num_values));

  // The caller defines all of carry-in before the first op runs.
  if (plan.carry_elems > 0) {
    SetInsert(&scratch[static_cast<size_t>(plan.carry_in)], &spills, 0,
              plan.carry_elems);
  }

  OpAccess access;       // reused across ops
  VerifyResult derived;  // filled by DeriveAccess only on failure
  for (int32_t i = 0; i < num_ops; ++i) {
    const Op& op = plan.ops[static_cast<size_t>(i)];
    // Failure paths only — see DeriveAccess.
    const auto where = [&] { return OpRef(i, op); };
    // Operand slots: present ids in range, absent slots truly absent —
    // one pass per slot rather than a range sweep plus a presence sweep.
    if (op.dst < 0 || op.dst >= num_values) {
      if (op.dst == kNoValue) return Fail("structure", where() + ": no dst");
      return Fail("structure",
                  where() + ": operand " + Str(op.dst) + " outside [0, " +
                      Str(num_values) + ")");
    }
    if (op.a == kNoValue) {
      return Fail("structure", where() + ": missing input a");
    }
    if (op.a < 0 || op.a >= num_values) {
      return Fail("structure",
                  where() + ": operand " + Str(op.a) + " outside [0, " +
                      Str(num_values) + ")");
    }
    if (UsesB(op.kind)) {
      if (op.b == kNoValue) {
        return Fail("structure", where() + ": missing input b");
      }
      if (op.b < 0 || op.b >= num_values) {
        return Fail("structure",
                    where() + ": operand " + Str(op.b) + " outside [0, " +
                        Str(num_values) + ")");
      }
    } else if (op.b != kNoValue) {
      return Fail("structure", where() + ": unexpected input b");
    }
    const Value& dv = plan.values[static_cast<size_t>(op.dst)];
    if (dv.kind == ValueKind::kWeight) {
      return Fail("structure",
                  where() + ": writes weight " + ValueRef(op.dst));
    }
    if (dv.kind == ValueKind::kCarryIn) {
      return Fail("carry",
                  where() + ": writes carry-in " + ValueRef(op.dst));
    }
    if (op.kind == OpKind::kGather &&
        plan.values[static_cast<size_t>(op.a)].kind != ValueKind::kWeight) {
      return Fail("shape", where() + ": gather table " + ValueRef(op.a) +
                               " is not a weight");
    }

    if (!DeriveAccess(plan, i, &access, &derived)) return derived;

    // Gather tables must be exactly the {k, cols} geometry the run-time
    // row-bounds check assumes (k rows of cols floats, no slack).
    if (op.kind == OpKind::kGather) {
      const Value& table = plan.values[static_cast<size_t>(op.a)];
      if (table.elems != op.k * op.cols) {
        return Fail("shape", where() + ": table " + ValueRef(op.a) + " has " +
                                 Str(table.elems) + " elems, expected k*cols = " +
                                 Str(op.k * op.cols));
      }
    }

    // Reads: in bounds, fully defined, not aliasing this op's output.
    for (int j = 0; j < access.num_reads; ++j) {
      const ValueId rv = access.read_v[j];
      const Range range = access.read_r[j];
      const Value& src = plan.values[static_cast<size_t>(rv)];
      if (range.hi > src.elems) {
        return Fail("bounds", where() + ": reads " + ValueRef(rv) + " [" +
                                  Str(range.lo) + ", " + Str(range.hi) +
                                  ") past its " + Str(src.elems) + " elems");
      }
      // Alias freedom first (an in-place op is better reported as aliasing
      // than as reading its not-yet-defined output): the executor streams
      // reads while writing dst, so an input overlapping the freshly
      // defined output bytes is corruption — within one value (element
      // ranges) or across the arena (two temps whose packed byte ranges
      // intersect at this op).
      if (rv == op.dst) {
        for (int64_t r = 0; r < access.w_rows; ++r) {
          const int64_t w_lo = access.w_base + r * access.w_stride;
          const int64_t w_hi = w_lo + access.w_cols;
          if (range.lo < w_hi && w_lo < range.hi) {
            return Fail("alias", where() + ": input range [" + Str(range.lo) +
                                     ", " + Str(range.hi) + ") of " +
                                     ValueRef(rv) +
                                     " overlaps its own output range [" +
                                     Str(w_lo) + ", " + Str(w_hi) + ")");
          }
        }
      } else if (src.kind == ValueKind::kTemp &&
                 dv.kind == ValueKind::kTemp) {
        for (int64_t r = 0; r < access.w_rows; ++r) {
          const int64_t r_lo = src.arena_offset + range.lo;
          const int64_t r_hi = src.arena_offset + range.hi;
          const int64_t w_lo =
              dv.arena_offset + access.w_base + r * access.w_stride;
          const int64_t w_hi = w_lo + access.w_cols;
          if (r_lo < w_hi && w_lo < r_hi) {
            return Fail("alias",
                        where() + ": input " + ValueRef(rv) +
                            " shares arena bytes with its output " +
                            ValueRef(op.dst));
          }
        }
      }
      if (src.kind != ValueKind::kWeight) {
        ValueScratch& rs = scratch[static_cast<size_t>(rv)];
        if (!SetCovers(rs, spills, range.lo, range.hi)) {
          return Fail("use-before-def",
                      where() + ": reads " + ValueRef(rv) + " [" +
                          Str(range.lo) + ", " + Str(range.hi) +
                          ") before it is defined");
        }
        // Touch interval, maintained on the scratch line already in hand.
        // Weights are exempt: pass 4 never consults their interval.
        if (rs.first_touch < 0) {
          rs.first_touch = i;
          if (src.kind == ValueKind::kTemp) birth_order.push_back(rv);
        }
        rs.last_touch = i;
      }
    }

    // Writes: in bounds and single-definition per element.
    ValueScratch& ddef = scratch[static_cast<size_t>(op.dst)];
    for (int64_t r = 0; r < access.w_rows; ++r) {
      const int64_t w_lo = access.w_base + r * access.w_stride;
      const int64_t w_hi = w_lo + access.w_cols;
      if (w_hi > dv.elems) {
        return Fail("bounds", where() + ": writes " + ValueRef(op.dst) + " [" +
                                  Str(w_lo) + ", " + Str(w_hi) +
                                  ") past its " + Str(dv.elems) + " elems");
      }
      if (SetOverlaps(ddef, spills, w_lo, w_hi)) {
        return Fail("single-def",
                    where() + ": redefines elements [" + Str(w_lo) + ", " +
                        Str(w_hi) + ") of " + ValueRef(op.dst));
      }
      SetInsert(&ddef, &spills, w_lo, w_hi);
    }
    // Every op kind writes dst, so the write side alone determines dst's
    // touch interval update for this op.
    if (ddef.first_touch < 0) {
      ddef.first_touch = i;
      if (dv.kind == ValueKind::kTemp) birth_order.push_back(op.dst);
    }
    ddef.last_touch = i;
  }

  // The caller reads every element of output and carry-out after the run.
  const auto fully_written = [&](ValueId id, int64_t elems) {
    return SetCovers(scratch[static_cast<size_t>(id)], spills, 0, elems);
  };
  if (!fully_written(plan.output, plan.out_rows * plan.out_cols)) {
    return Fail("output", ValueRef(plan.output) +
                              ": output elements left unwritten");
  }
  if (plan.carry_elems > 0 && !fully_written(plan.carry_out,
                                             plan.carry_elems)) {
    return Fail("carry", ValueRef(plan.carry_out) +
                             ": carry-out elements left unwritten");
  }

  // --- 4. lifetime honesty: recorded intervals == derived intervals ------
  // The packer trusted Value::{first_def, last_use}; a recorded interval
  // narrower than the ops' real extent lets two live temps share bytes.
  for (int64_t i = 0; i < num_values; ++i) {
    const Value& v = plan.values[static_cast<size_t>(i)];
    if (v.kind == ValueKind::kWeight) continue;
    const ValueScratch& s = scratch[static_cast<size_t>(i)];
    if (s.first_touch < 0) {
      return Fail("interval", ValueRef(static_cast<ValueId>(i)) +
                                  ": never touched by any op");
    }
    if (v.first_def != s.first_touch || v.last_use != s.last_touch) {
      return Fail("interval",
                  ValueRef(static_cast<ValueId>(i)) +
                      ": recorded live interval [" + Str(v.first_def) + ", " +
                      Str(v.last_use) + "] != derived [" + Str(s.first_touch) +
                      ", " + Str(s.last_touch) + "]");
    }
  }

  // --- 5. the memory-planner proof: live temps never share bytes ----------
  // Sweep temps in birth order (first touch order, which pass 4 just proved
  // equals the recorded first_def). The active list holds only temps whose
  // live interval reaches the current birth point — the handful of values
  // genuinely live at once — so each new temp is checked against live
  // candidates only, never against every later occupant of its arena slot
  // (slot-reuse chains make that pairing quadratic: one slot hosts one
  // temp per recurrence step).
  struct ActiveTemp {
    ValueId id;
    int64_t lo;        // arena extent, in elements
    int64_t hi;
    int32_t last_use;  // recorded == derived after pass 4
  };
  std::vector<ActiveTemp> active;
  active.reserve(64);
  for (const ValueId id : birth_order) {
    const Value& v = plan.values[static_cast<size_t>(id)];
    const int32_t birth = v.first_def;
    const int64_t lo = v.arena_offset;
    const int64_t hi = v.arena_offset + v.elems;
    for (size_t a = 0; a < active.size();) {
      if (active[a].last_use < birth) {  // expired: lazily swap-erase
        active[a] = active.back();
        active.pop_back();
        continue;
      }
      if (lo < active[a].hi && active[a].lo < hi) {
        const Value& other = plan.values[static_cast<size_t>(active[a].id)];
        return Fail("arena-overlap",
                    ValueRef(active[a].id) + " [" + Str(other.arena_offset) +
                        ", " + Str(other.arena_offset + other.elems) +
                        ") live [" + Str(other.first_def) + ", " +
                        Str(other.last_use) +
                        "] shares arena bytes with " + ValueRef(id) + " [" +
                        Str(lo) + ", " + Str(hi) + ") live [" +
                        Str(v.first_def) + ", " + Str(v.last_use) + "]");
      }
      ++a;
    }
    active.push_back({id, lo, hi, v.last_use});
  }

  return {};
}

}  // namespace adamove::nn::plan
