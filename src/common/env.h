#ifndef ADAMOVE_COMMON_ENV_H_
#define ADAMOVE_COMMON_ENV_H_

#include <cstdlib>
#include <string>

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

/// Reads an integer-valued environment override; returns `fallback` when
/// unset or unparsable.
inline int EnvInt(const char* name, int fallback) {
  return static_cast<int>(EnvDouble(name, static_cast<double>(fallback)));
}

/// Reads a string-valued environment override (e.g. ADAMOVE_ADAPT_MODE);
/// returns `fallback` when unset or empty.
inline std::string EnvString(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return v;
}

}  // namespace adamove::common

#endif  // ADAMOVE_COMMON_ENV_H_
