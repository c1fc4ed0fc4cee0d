#ifndef ADAMOVE_COMMON_CPU_FEATURES_H_
#define ADAMOVE_COMMON_CPU_FEATURES_H_

#include <string>

namespace adamove::common {

// Runtime CPU feature detection behind the kernel backend dispatch
// (nn/kernels.h): the binary is compiled for the baseline ISA everywhere
// except the per-file vector translation units, and these probes decide at
// startup which of those units the dispatch table may point into.

/// True when the host CPU executes AVX2 instructions (x86 only; false on
/// every other architecture).
bool CpuHasAvx2();

/// True when the host CPU executes FMA3 instructions (x86 only).
bool CpuHasFma();

/// Human-readable summary of the vector features relevant to the kernel
/// backends, e.g. "avx2+fma", "avx2" or "baseline". Stable enough
/// to embed in benchmark context blocks.
std::string CpuFeatureString();

}  // namespace adamove::common

#endif  // ADAMOVE_COMMON_CPU_FEATURES_H_
