#include "train/env_inference.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "train/erm.h"

namespace lightmirm::train {
namespace {

using testing::MakeIrmProblem;

TEST(EnvInferenceTest, RecoversLatentEnvironmentStructure) {
  // Latent environments with opposite spurious patterns, where the aligned
  // pattern dominates the pool (2:1), so the reference ERM model exploits
  // the spurious feature (the EIIL precondition). Rows of the minority
  // pattern then carry systematically different residual signatures, and
  // inference should separate the two pattern groups far better than
  // chance.
  const auto p = MakeIrmProblem({0.95, 0.95, 0.05}, 500, 1);
  const TrainData data = p.Data();
  TrainerOptions options;
  options.epochs = 150;
  options.optimizer.learning_rate = 0.2;
  const TrainedPredictor erm = *ErmTrainer(options).Fit(data);
  ASSERT_GT(erm.global.params()[1], 0.1);  // reference leans on spurious

  const InferredEnvs inferred =
      std::move(InferEnvironments(data.Context(), data.all_rows,
                                  erm.global.params(), {}))
          .value();
  ASSERT_EQ(inferred.hard_assignment.size(), data.all_rows.size());

  // Agreement with the true *pattern group* (envs {0,1} vs {2}), up to
  // label switching.
  size_t match = 0;
  for (size_t k = 0; k < data.all_rows.size(); ++k) {
    const int group = p.envs[data.all_rows[k]] == 2 ? 1 : 0;
    if (inferred.hard_assignment[k] == group) ++match;
  }
  double rate = static_cast<double>(match) /
                static_cast<double>(data.all_rows.size());
  rate = std::max(rate, 1.0 - rate);
  EXPECT_GT(rate, 0.62);
  EXPECT_GT(inferred.penalty, 0.0);
}

TEST(EnvInferenceTest, SoftAssignmentsAreProbabilities) {
  const auto p = MakeIrmProblem({0.8, 0.3}, 200, 2);
  const TrainData data = p.Data();
  TrainerOptions options;
  options.epochs = 60;
  const TrainedPredictor erm = *ErmTrainer(options).Fit(data);
  const InferredEnvs inferred =
      std::move(InferEnvironments(data.Context(), data.all_rows,
                                  erm.global.params(), {}))
          .value();
  for (double q : inferred.soft_assignment) {
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 1.0);
  }
}

TEST(EnvInferenceTest, DeterministicGivenSeed) {
  const auto p = MakeIrmProblem({0.9, 0.2}, 150, 3);
  const TrainData data = p.Data();
  TrainerOptions options;
  options.epochs = 60;
  const TrainedPredictor erm = *ErmTrainer(options).Fit(data);
  EnvInferenceOptions inference;
  inference.seed = 77;
  const InferredEnvs a =
      std::move(InferEnvironments(data.Context(), data.all_rows,
                                  erm.global.params(), inference))
          .value();
  const InferredEnvs b =
      std::move(InferEnvironments(data.Context(), data.all_rows,
                                  erm.global.params(), inference))
          .value();
  for (size_t k = 0; k < a.soft_assignment.size(); k += 11) {
    EXPECT_DOUBLE_EQ(a.soft_assignment[k], b.soft_assignment[k]);
  }
}

TEST(EnvInferenceTest, RejectsBadInputs) {
  const auto p = MakeIrmProblem({0.9, 0.2}, 50, 4);
  const TrainData data = p.Data();
  linear::ParamVec params(3, 0.0);
  EXPECT_FALSE(InferEnvironments(data.Context(), {}, params, {}).ok());
  EnvInferenceOptions bad;
  bad.steps = 0;
  EXPECT_FALSE(
      InferEnvironments(data.Context(), data.all_rows, params, bad)
          .ok());
}

}  // namespace
}  // namespace lightmirm::train
