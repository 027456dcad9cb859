#include "train/trainer.h"

#include <gtest/gtest.h>

#include <climits>

#include "test_util.h"

namespace lightmirm::train {
namespace {

using testing::MakeEasyProblem;

TEST(TrainDataTest, GroupsByEnvironment) {
  const auto p = MakeEasyProblem(3, 40, 1);
  const TrainData data = p.Data(10);
  EXPECT_EQ(data.NumTasks(), 3u);
  EXPECT_EQ(data.all_rows.size(), 120u);
  size_t total = 0;
  for (size_t t = 0; t < data.NumTasks(); ++t) {
    total += data.env_rows[t].size();
    for (size_t r : data.env_rows[t]) {
      EXPECT_EQ((*data.labels).size(), 120u);
      EXPECT_EQ(p.envs[r], data.env_ids[t]);
    }
  }
  EXPECT_EQ(total, 120u);
}

TEST(TrainDataTest, ErrorsWhenNoEnvironmentQualifies) {
  const auto p = MakeEasyProblem(3, 40, 3);
  auto result = TrainData::Create(&p.x, &p.labels, &p.envs, 1000);
  EXPECT_FALSE(result.ok());
}

TEST(TrainDataTest, RejectsInconsistentInputs) {
  const auto p = MakeEasyProblem(2, 10, 4);
  std::vector<int> short_labels = {0, 1};
  EXPECT_FALSE(TrainData::Create(&p.x, &short_labels, &p.envs, 1).ok());
  EXPECT_FALSE(TrainData::Create(nullptr, &p.labels, &p.envs, 1).ok());
  std::vector<int> bad_envs = p.envs;
  bad_envs[0] = -1;
  EXPECT_FALSE(TrainData::Create(&p.x, &p.labels, &bad_envs, 1).ok());
}

TEST(TrainDataTest, IncludeRowsRestrictsTraining) {
  const auto p = MakeEasyProblem(2, 30, 5);
  std::vector<size_t> subset;
  for (size_t i = 0; i < 30; ++i) subset.push_back(i);
  const auto data =
      TrainData::Create(&p.x, &p.labels, &p.envs, 5, nullptr, &subset);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->all_rows.size(), 30u);
  size_t task_total = 0;
  for (const auto& rows : data->env_rows) task_total += rows.size();
  EXPECT_EQ(task_total, 30u);
  std::vector<size_t> bad = {10000};
  EXPECT_FALSE(
      TrainData::Create(&p.x, &p.labels, &p.envs, 1, nullptr, &bad).ok());
}

// Tasks are grouped by the env ids present, in ascending id order: an id
// of INT_MAX costs no more than an id of 1.
TEST(TrainDataTest, LargeEnvIdsGroupByTheIdsPresent) {
  Matrix m(4, 1, {0.5, -1.0, 2.0, 0.0});
  const linear::FeatureMatrix x = linear::FeatureMatrix::FromDense(m);
  const std::vector<int> labels = {0, 1, 1, 0};
  const std::vector<int> envs = {INT_MAX, 0, INT_MAX, 100000000};
  const auto data = TrainData::Create(&x, &labels, &envs, 1);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data->env_ids, (std::vector<int>{0, 100000000, INT_MAX}));
  EXPECT_EQ(data->env_rows[0].rows(), (std::vector<size_t>{1}));
  EXPECT_EQ(data->env_rows[1].rows(), (std::vector<size_t>{3}));
  EXPECT_EQ(data->env_rows[2].rows(), (std::vector<size_t>{0, 2}));
  EXPECT_EQ(data->all_rows.size(), 4u);
}

TEST(TrainedPredictorTest, PerEnvOverridesApply) {
  TrainedPredictor predictor;
  predictor.global = linear::LogisticModel(1);
  predictor.global.set_params({0.0, 0.0});  // always 0.5
  linear::LogisticModel biased(1);
  biased.set_params({0.0, 100.0});  // always ~1.0
  predictor.per_env.emplace(1, biased);

  Matrix m(2, 1, {0.0, 0.0});
  const linear::FeatureMatrix x = linear::FeatureMatrix::FromDense(m);
  const std::vector<int> envs = {0, 1};
  const auto scores = predictor.Predict(x, &envs);
  EXPECT_DOUBLE_EQ(scores[0], 0.5);
  EXPECT_GT(scores[1], 0.99);
  // Without envs, the global model is used everywhere.
  const auto global_scores = predictor.Predict(x, nullptr);
  EXPECT_DOUBLE_EQ(global_scores[1], 0.5);
}

TEST(BestModelTrackerTest, KeepsBestSnapshot) {
  TrainerOptions options;
  int call = 0;
  const std::vector<double> scores = {0.1, 0.9, 0.4};
  options.validation_fn = [&](const linear::LogisticModel&) {
    return scores[call++];
  };
  BestModelTracker tracker(&options);
  linear::LogisticModel model(1);
  model.set_params({1.0, 0.0});
  tracker.Observe(model);
  model.set_params({2.0, 0.0});
  tracker.Observe(model);  // best (0.9)
  model.set_params({3.0, 0.0});
  tracker.Observe(model);
  tracker.Finalize(&model);
  EXPECT_DOUBLE_EQ(model.params()[0], 2.0);
  EXPECT_DOUBLE_EQ(tracker.best_score(), 0.9);
}

TEST(BestModelTrackerTest, NoValidationIsPassThrough) {
  TrainerOptions options;
  BestModelTracker tracker(&options);
  linear::LogisticModel model(1);
  model.set_params({5.0, 1.0});
  tracker.Observe(model);
  linear::LogisticModel other(1);
  other.set_params({7.0, 2.0});
  tracker.Finalize(&other);  // must not overwrite
  EXPECT_DOUBLE_EQ(other.params()[0], 7.0);
}

}  // namespace
}  // namespace lightmirm::train
