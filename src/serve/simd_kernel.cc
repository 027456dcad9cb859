// The `avx2` tier: the scoring kernel compiled with -mavx2 (see
// src/CMakeLists.txt). On other targets this file builds the portable
// kernel a second time, Avx2KernelAvailable() is false, and dispatch never
// selects it.
#include "serve/simd_kernel.h"

#include "serve/scoring_kernel.inc"

namespace lightmirm::serve {

bool Avx2KernelAvailable() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

const ScoringKernel& Avx2ScoringKernel() {
  static constexpr ScoringKernel kKernel{&QuantizeCells, &AccumulateForest};
  return kKernel;
}

}  // namespace lightmirm::serve
