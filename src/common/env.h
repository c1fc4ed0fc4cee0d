#ifndef ADAMOVE_COMMON_ENV_H_
#define ADAMOVE_COMMON_ENV_H_

#include <cstdlib>
#include <limits>

namespace adamove::common {

/// Reads a double-valued environment override (e.g. ADAMOVE_BENCH_SCALE);
/// returns `fallback` when unset or unparsable.
inline double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  double parsed = std::strtod(v, &end);
  if (end == v) return fallback;
  return parsed;
}

/// Reads an integer-valued environment override (truncated toward zero);
/// returns `fallback` when unset, unparsable, non-finite, or outside the
/// range of int.
inline int EnvInt(const char* name, int fallback) {
  const double parsed = EnvDouble(name, static_cast<double>(fallback));
  // Converting a double whose truncation does not fit in int is undefined;
  // the negated test also rejects NaN.
  constexpr double kLow =
      static_cast<double>(std::numeric_limits<int>::min()) - 1.0;
  constexpr double kHigh =
      static_cast<double>(std::numeric_limits<int>::max()) + 1.0;
  if (!(parsed > kLow && parsed < kHigh)) return fallback;
  return static_cast<int>(parsed);
}

}  // namespace adamove::common

#endif  // ADAMOVE_COMMON_ENV_H_
