#include "linear/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>

namespace lightmirm::linear {
namespace {

TEST(OptimizerTest, FactoryRejectsBadConfig) {
  OptimizerOptions options;
  options.learning_rate = 0.0;
  EXPECT_FALSE(Adam::Create(options).ok());
  options.learning_rate = -0.1;
  EXPECT_FALSE(Adam::Create(options).ok());
}

TEST(OptimizerTest, AdamFirstStepIsLearningRateSized) {
  OptimizerOptions options;
  options.learning_rate = 0.1;
  Adam adam = std::move(Adam::Create(options)).value();
  ParamVec params = {0.0};
  adam.Step({42.0}, &params);
  // Bias-corrected first Adam step ~= lr * sign(grad).
  EXPECT_NEAR(params[0], -0.1, 1e-6);
}

// The optimizer must minimize a convex quadratic.
class OptimizerConvergenceTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(OptimizerConvergenceTest, MinimizesQuadratic) {
  OptimizerOptions options;
  options.learning_rate = 0.1;
  Adam adam = std::move(Adam::Create(options)).value();
  // f(p) = 0.5 * sum((p - target)^2)
  const ParamVec target = {3.0, -2.0, 0.5};
  ParamVec params = {0.0, 0.0, 0.0};
  for (int step = 0; step < 2000; ++step) {
    ParamVec grad(3);
    for (size_t j = 0; j < 3; ++j) grad[j] = params[j] - target[j];
    adam.Step(grad, &params);
  }
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(params[j], target[j], 1e-2) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, OptimizerConvergenceTest,
                         ::testing::Values("adam"));

}  // namespace
}  // namespace lightmirm::linear
