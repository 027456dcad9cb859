// Runtime CPU dispatch for the scoring kernel. The kernel is one portable
// source compiled twice (serve/simd_kernel.h): for the baseline ISA, and
// with -mavx2 in simd_kernel.cc. Everything else in the binary is built for
// the baseline ISA, so whether the AVX2 build may run is a runtime
// question: the build must contain it, the CPU must report AVX2, and the
// operator must not have pinned a tier through the environment.
// ScoringSession consults ActiveSimdLevel() per batch; benches and tests
// pin levels explicitly to compare the builds on the same machine.
//
// Environment control (resolved once at first use):
//   LIGHTMIRM_SIMD_LEVEL=scalar|avx2|auto  pins a kernel tier per process
//       ("avx2" is clamped to what the build + CPU support; "auto", unset
//       and unknown values — which warn — use detection).
#pragma once

#include <string>

namespace lightmirm::serve {

/// Kernel tiers, ordered by preference: the scoring kernel built for the
/// baseline ISA (kScalar) and built with -mavx2 (kAvx2). Both run the same
/// source, so they score bit-identically.
enum class SimdLevel {
  kScalar = 0,
  kAvx2 = 1,
};

/// Display name: "scalar" / "avx2".
const char* SimdLevelName(SimdLevel level);

/// Best level this build + this CPU can run (ignores the environment
/// override and any SetSimdLevel call). Computed once.
SimdLevel DetectedSimdLevel();

/// Level the scoring path currently selects. Starts at the environment
/// resolution above (ResolveSimdLevel over LIGHTMIRM_SIMD_LEVEL), read
/// once at first use.
SimdLevel ActiveSimdLevel();

/// Pure resolution of the environment control, exposed so it is
/// unit-testable without mutating the process environment: `simd_level`
/// stands in for the variable (null = unset), `detected` for
/// DetectedSimdLevel(). Requested tiers above `detected` are clamped to
/// it; an unrecognized value warns on stderr and behaves like "auto".
SimdLevel ResolveSimdLevel(const char* simd_level, SimdLevel detected);

/// Overrides the active level, clamped to DetectedSimdLevel() (requesting
/// kAvx2 on a scalar-only machine stays scalar). Returns the level actually
/// now active. Thread-safe; intended for benches and tests.
SimdLevel SetSimdLevel(SimdLevel level);

/// RAII level pin for bench sweeps and tests.
class ScopedSimdLevel {
 public:
  explicit ScopedSimdLevel(SimdLevel level) : prev_(ActiveSimdLevel()) {
    SetSimdLevel(level);
  }
  ~ScopedSimdLevel() { SetSimdLevel(prev_); }
  ScopedSimdLevel(const ScopedSimdLevel&) = delete;
  ScopedSimdLevel& operator=(const ScopedSimdLevel&) = delete;

 private:
  SimdLevel prev_;
};

/// Human-readable CPU model ("model name" from /proc/cpuinfo on Linux;
/// "unknown" elsewhere). Recorded in bench artifacts so throughput numbers
/// carry the hardware they were measured on.
std::string CpuModelName();

}  // namespace lightmirm::serve
