#ifndef ADAMOVE_COMMON_QFLOAT_H_
#define ADAMOVE_COMMON_QFLOAT_H_

#include <cmath>
#include <cstdint>
#include <vector>

namespace adamove::common {

/// Power-of-two int8 block quantization for pattern vectors (DESIGN.md §4.3,
/// §12) — the one representation of a knowledge-base pattern, from ingest
/// through the hot tier to the compact cold tier.
///
/// A vector is stored as one shared exponent e plus one int8 per element,
/// reconstructing x_i = q_i * 2^e. The exponent is chosen so the magnitude
/// maximum lands in [64, 127] — six significant bits for the largest
/// element, which is ample for the cosine-similarity and centroid math the
/// knowledge base feeds (patterns are bounded tanh outputs, and similarity
/// ranking is insensitive to <1% per-element noise).
///
/// The whole point of the power-of-two scale is *exactness of the decoded
/// form*: q_i * 2^e is exactly representable in IEEE float for |q_i| <= 127
/// (7 mantissa bits against 24 available), and dividing a decoded value by
/// 2^e is again exact. Hence:
///
///   * Decode(Encode(x)) is a deterministic canonical vector x';
///   * Encode(x') reproduces exactly the same (e, q) — the codec is
///     idempotent on its own image (pinned by tests/core/compact_state_test);
///   * every consumer that dequantizes a block (similarity ranking, the
///     rebuild arena, the wire codec's raw mode) sees exactly x', so state
///     that moves between tiers as int8 answers bit-identically.
///
/// Vectors containing non-finite values (or empty ones) are not quantizable;
/// the knowledge base never stores them (core::OnlineAdapter::Observe).
struct QfloatBlock {
  /// Shared exponent: scale = 2^exponent.
  int exponent = 0;
  std::vector<int8_t> q;

  friend bool operator==(const QfloatBlock&, const QfloatBlock&) = default;
};

/// True iff every element is finite (quantization would otherwise produce
/// garbage ranks instead of degrading gracefully).
inline bool QfloatEncodable(const float* x, size_t n) {
  if (n == 0) return false;
  for (size_t i = 0; i < n; ++i) {
    if (!std::isfinite(x[i])) return false;
  }
  return true;
}

/// Encodes the `n` floats at `x` into the `n` int8 at `q` and returns the
/// shared exponent e — the one quantizer; every other encode form forwards
/// here. Pre-condition: QfloatEncodable(x, n).
inline int QfloatEncodeInto(const float* x, size_t n, int8_t* q) {
  float m = 0.0f;
  for (size_t i = 0; i < n; ++i) m = std::max(m, std::fabs(x[i]));
  if (m == 0.0f) {
    for (size_t i = 0; i < n; ++i) q[i] = 0;
    return 0;
  }
  // m = frac * 2^k with frac in [0.5, 1), so m / 2^(k-7) lies in [64, 128).
  int k = 0;
  std::frexp(m, &k);
  const int exponent = k - 7;
  // Double precision: for subnormal inputs -exponent can exceed float's
  // range (2^155 overflows a float but not a double), and scaling by a
  // power of two stays exact in double for every float input.
  const double inv_scale = std::ldexp(1.0, -exponent);
  for (size_t i = 0; i < n; ++i) {
    // Multiplication by a power of two is exact; only the rounding to
    // integer loses information (once — see idempotence note above). The
    // magnitude maximum can round up to 128, so clamp into int8 range.
    long v = std::lround(static_cast<double>(x[i]) * inv_scale);
    if (v > 127) v = 127;
    if (v < -127) v = -127;
    q[i] = static_cast<int8_t>(v);
  }
  return exponent;
}

/// Encodes `x` into (e, q). Pre-condition: QfloatEncodable(x, n).
inline void QfloatEncode(const float* x, size_t n, QfloatBlock* out) {
  out->q.resize(n);
  out->exponent = QfloatEncodeInto(x, n, out->q.data());
}

/// Decodes the `n` int8 at `q` with exponent `exponent` into the `n` floats
/// at `out`; exact (see header comment).
inline void QfloatDecodeInto(const int8_t* q, size_t n, int exponent,
                             float* out) {
  const float scale = std::ldexp(1.0f, exponent);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<float>(q[i]) * scale;
}

/// Decodes (e, q) into `out`, which must hold block.q.size() floats.
inline void QfloatDecodeInto(const QfloatBlock& block, float* out) {
  QfloatDecodeInto(block.q.data(), block.q.size(), block.exponent, out);
}

/// Decodes (e, q) back to floats; exact (see header comment).
inline void QfloatDecode(const QfloatBlock& block, std::vector<float>* out) {
  out->resize(block.q.size());
  QfloatDecodeInto(block, out->data());
}

/// Cosine similarity, in double, of `x` (`n` floats whose Euclidean norm,
/// accumulated in double in ascending order, is `x_norm`) and the block of
/// `n` int8 at `q` with exponent `exponent`, computed without decoding and
/// bit-identical to computing it over the decoded floats the same way. A
/// decoded element is exactly q_i * 2^e, and while no partial result leaves
/// double's normal range, rounding commutes with scaling by a power of two:
/// the dot product is 2^e times the dot with the int8 values, and the
/// block's norm is 2^e times sqrt(sum of q_i^2). Below e = -149 the float
/// scale QfloatDecodeInto multiplies by underflows to zero, so the decoded
/// block is all zeros and its cosine 0, as is every cosine whose denominator
/// is at most 1e-12.
inline float QfloatCosine(const float* x, double x_norm, const int8_t* q,
                          size_t n, int exponent) {
  if (exponent < -149) return 0.0f;
  double dot = 0;
  int64_t q_squares = 0;
  for (size_t i = 0; i < n; ++i) {
    const int v = q[i];
    dot += static_cast<double>(x[i]) * v;
    q_squares += v * v;
  }
  const double denom =
      x_norm *
      std::ldexp(std::sqrt(static_cast<double>(q_squares)), exponent);
  return denom > 1e-12
             ? static_cast<float>(std::ldexp(dot, exponent) / denom)
             : 0.0f;
}

/// QfloatCosine against a whole block (x holds block.q.size() floats).
inline float QfloatCosine(const float* x, double x_norm,
                          const QfloatBlock& block) {
  return QfloatCosine(x, x_norm, block.q.data(), block.q.size(),
                      block.exponent);
}

/// Projects `x` onto the codec's image in place: x -> Decode(Encode(x)) —
/// the float values the knowledge base holds for an observed pattern, for
/// references and tests that reason about stored values in float. Vectors
/// that are not encodable are left untouched.
inline void QfloatCanonicalize(std::vector<float>* x) {
  if (!QfloatEncodable(x->data(), x->size())) return;
  QfloatBlock block;
  QfloatEncode(x->data(), x->size(), &block);
  QfloatDecode(block, x);
}

}  // namespace adamove::common

#endif  // ADAMOVE_COMMON_QFLOAT_H_
