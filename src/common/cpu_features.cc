#include "common/cpu_features.h"

namespace adamove::common {

#if defined(__x86_64__) || defined(__i386__)

bool CpuHasAvx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
}

bool CpuHasFma() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("fma") != 0;
}

#else

bool CpuHasAvx2() { return false; }
bool CpuHasFma() { return false; }

#endif

std::string CpuFeatureString() {
  if (CpuHasAvx2()) return CpuHasFma() ? "avx2+fma" : "avx2";
  return "baseline";
}

}  // namespace adamove::common
