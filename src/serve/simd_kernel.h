// Entry points of the scoring kernel's two builds. serve/scoring_kernel.inc
// holds the one kernel — the float-plane conversion and the false-node
// sweep — as portable C++. scoring_session.cc compiles it for the baseline
// ISA (the `scalar` tier); simd_kernel.cc, the only translation unit built
// with -mavx2, compiles it again (the `avx2` tier). Both builds run the
// same source, so their scores are bit-identical by construction, and
// ScoringSession picks one per batch through ActiveSimdLevel().
#pragma once

#include <cstddef>
#include <cstdint>

#include "serve/simd_dispatch.h"

namespace lightmirm::serve {

class QuantizedForest;

/// Rows the false-node sweep scores together; the row dimension of the
/// kernel's leaf-mask scratch and the unit ScoringSession shards batches in.
inline constexpr size_t kGroupRows = 32;

/// One build of the kernel.
struct ScoringKernel {
  /// dst[c] = gbdt::QuantizeThreshold(src[c]) for c in [0, n).
  void (*quantize_cells)(const double* src, float* dst, size_t n);
  /// acc[i] += tables[i][leaf column of plane row i in tree t], summed in
  /// increasing tree order, for n plane rows of `stride` floats each.
  /// A row without an env override points at the global table. `masks`
  /// is scratch of forest.num_trees() * kGroupRows entries.
  void (*accumulate)(const QuantizedForest& forest, const float* plane,
                     size_t stride, size_t n, const double* const* tables,
                     double* acc, uint32_t* masks);
};

/// The build for `level`, clamped to DetectedSimdLevel() so a caller can
/// never reach AVX2 instructions the CPU lacks. Defined beside the scalar
/// build in scoring_session.cc.
const ScoringKernel& KernelFor(SimdLevel level);

/// True when simd_kernel.cc was built with AVX2 (a compile-time property;
/// whether the CPU can run it is DetectedSimdLevel()'s job).
bool Avx2KernelAvailable();

/// The simd_kernel.cc build. Reach it through KernelFor.
const ScoringKernel& Avx2ScoringKernel();

}  // namespace lightmirm::serve
