// Resolution of the kernel-tier environment control: LIGHTMIRM_SIMD_LEVEL
// pins a tier, requested tiers clamp to what the build + CPU detected, and
// "auto", unset and unrecognized values use detection. ResolveSimdLevel is
// pure, so every case is testable without touching the process
// environment.
#include <gtest/gtest.h>

#include "serve/simd_dispatch.h"

namespace lightmirm::serve {
namespace {

TEST(SimdDispatchTest, NothingSetUsesDetection) {
  EXPECT_EQ(ResolveSimdLevel(nullptr, SimdLevel::kScalar),
            SimdLevel::kScalar);
  EXPECT_EQ(ResolveSimdLevel(nullptr, SimdLevel::kAvx2), SimdLevel::kAvx2);
  // An empty string counts as unset (an `export VAR=` shell artifact).
  EXPECT_EQ(ResolveSimdLevel("", SimdLevel::kAvx2), SimdLevel::kAvx2);
}

TEST(SimdDispatchTest, ExplicitScalarPinsScalar) {
  EXPECT_EQ(ResolveSimdLevel("scalar", SimdLevel::kAvx2),
            SimdLevel::kScalar);
  EXPECT_EQ(ResolveSimdLevel("scalar", SimdLevel::kScalar),
            SimdLevel::kScalar);
}

TEST(SimdDispatchTest, ExplicitAvx2ClampsToDetection) {
  EXPECT_EQ(ResolveSimdLevel("avx2", SimdLevel::kAvx2), SimdLevel::kAvx2);
  // A machine (or build) without the kernel cannot be forced onto it.
  EXPECT_EQ(ResolveSimdLevel("avx2", SimdLevel::kScalar),
            SimdLevel::kScalar);
}

TEST(SimdDispatchTest, AutoUsesDetection) {
  EXPECT_EQ(ResolveSimdLevel("auto", SimdLevel::kAvx2), SimdLevel::kAvx2);
  EXPECT_EQ(ResolveSimdLevel("auto", SimdLevel::kScalar),
            SimdLevel::kScalar);
}

TEST(SimdDispatchTest, UnknownValueFallsThroughLikeAuto) {
  EXPECT_EQ(ResolveSimdLevel("turbo", SimdLevel::kAvx2), SimdLevel::kAvx2);
  EXPECT_EQ(ResolveSimdLevel("turbo", SimdLevel::kScalar),
            SimdLevel::kScalar);
  // Case matters: the documented values are lowercase.
  EXPECT_EQ(ResolveSimdLevel("SCALAR", SimdLevel::kAvx2), SimdLevel::kAvx2);
}

TEST(SimdDispatchTest, ActiveLevelNeverExceedsDetection) {
  // Whatever the environment did at startup, the active level must be
  // runnable on this machine.
  EXPECT_LE(static_cast<int>(ActiveSimdLevel()),
            static_cast<int>(DetectedSimdLevel()));
}

}  // namespace
}  // namespace lightmirm::serve
