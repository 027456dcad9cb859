#include "train/meta_irm_nn.h"

#include <gtest/gtest.h>

#include <climits>

#include "metrics/roc.h"
#include "test_util.h"

namespace lightmirm::train {
namespace {

struct DenseProblem {
  Matrix features;
  std::vector<int> labels;
  std::vector<int> envs;
};

DenseProblem MakeDense(const std::vector<double>& agree, size_t rows_per_env,
                       uint64_t seed) {
  Rng rng(seed);
  const size_t n = rows_per_env * agree.size();
  DenseProblem p{Matrix(n, 2), std::vector<int>(n), std::vector<int>(n)};
  for (size_t i = 0; i < n; ++i) {
    const size_t e = i % agree.size();
    p.envs[i] = static_cast<int>(e);
    const double causal = rng.Normal();
    const int y = rng.Bernoulli(linear::Sigmoid(2.0 * causal)) ? 1 : 0;
    const double sign = rng.Bernoulli(agree[e]) ? 1.0 : -1.0;
    p.features.At(i, 0) = causal + 0.3 * rng.Normal();
    p.features.At(i, 1) = sign * (y == 1 ? 1.0 : -1.0) + 0.5 * rng.Normal();
    p.labels[i] = y;
  }
  return p;
}

TEST(NnEnvDataTest, BuildsPerEnvTensors) {
  const DenseProblem p = MakeDense({0.9, 0.5, 0.2}, 60, 1);
  const NnEnvData data =
      std::move(NnEnvData::Build(p.features, p.labels, p.envs, 20)).value();
  EXPECT_EQ(data.env_x.size(), 3u);
  EXPECT_EQ(data.env_x[0].rows(), 60u);
  EXPECT_EQ(data.env_x[0].cols(), 2u);
  EXPECT_EQ(data.env_y[1].rows(), 60u);
}

// Environments are grouped by the ids present, ascending: an id of INT_MAX
// costs no more than an id of 1.
TEST(NnEnvDataTest, LargeEnvIdsGroupByTheIdsPresent) {
  Matrix features(4, 1, {0.5, -1.0, 2.0, 0.0});
  const std::vector<int> labels = {0, 1, 1, 0};
  const std::vector<int> envs = {INT_MAX, 0, INT_MAX, 100000000};
  const auto data = NnEnvData::Build(features, labels, envs, 1);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  ASSERT_EQ(data->env_x.size(), 3u);
  EXPECT_EQ(data->env_x[0].rows(), 1u);
  EXPECT_EQ(data->env_x[0].At(0, 0), -1.0);
  EXPECT_EQ(data->env_x[1].At(0, 0), 0.0);
  ASSERT_EQ(data->env_x[2].rows(), 2u);
  EXPECT_EQ(data->env_x[2].At(0, 0), 0.5);
  EXPECT_EQ(data->env_x[2].At(1, 0), 2.0);
  EXPECT_EQ(data->env_y[2].At(1, 0), 1.0);
}

TEST(NnEnvDataTest, RejectsBadInputs) {
  const DenseProblem p = MakeDense({0.9, 0.5}, 30, 2);
  std::vector<int> short_labels = {0, 1};
  EXPECT_FALSE(
      NnEnvData::Build(p.features, short_labels, p.envs, 10).ok());
  EXPECT_FALSE(NnEnvData::Build(p.features, p.labels, p.envs, 1000).ok());
}

TEST(NnMetaIrmTest, LearnsNonlinearlySeparableData) {
  const DenseProblem p = MakeDense({0.5, 0.5}, 400, 3);
  const NnEnvData data =
      std::move(NnEnvData::Build(p.features, p.labels, p.envs, 20)).value();
  NnMetaIrmOptions options;
  options.epochs = 80;
  options.hidden = {8};
  options.light = true;
  const NnPredictor predictor =
      std::move(TrainNnMetaIrm(data, 2, options)).value();

  // Score the pooled data.
  autodiff::Tensor all(p.features.rows(), 2);
  for (size_t i = 0; i < p.features.rows(); ++i) {
    all.At(i, 0) = p.features.At(i, 0);
    all.At(i, 1) = p.features.At(i, 1);
  }
  const std::vector<double> scores = predictor.Predict(all);
  EXPECT_GT(*metrics::Auc(p.labels, scores), 0.75);
}

TEST(NnMetaIrmTest, CompleteObjectiveAlsoTrains) {
  const DenseProblem p = MakeDense({0.9, 0.2}, 250, 4);
  const NnEnvData data =
      std::move(NnEnvData::Build(p.features, p.labels, p.envs, 20)).value();
  NnMetaIrmOptions options;
  options.epochs = 60;
  options.light = false;  // full meta-IRM
  options.hidden = {};    // degenerate to logistic regression
  const NnPredictor predictor =
      std::move(TrainNnMetaIrm(data, 2, options)).value();
  autodiff::Tensor all(p.features.rows(), 2);
  for (size_t i = 0; i < p.features.rows(); ++i) {
    all.At(i, 0) = p.features.At(i, 0);
    all.At(i, 1) = p.features.At(i, 1);
  }
  EXPECT_GT(*metrics::Auc(p.labels, predictor.Predict(all)), 0.70);
}

TEST(NnMetaIrmTest, RejectsBadConfig) {
  const DenseProblem p = MakeDense({0.9, 0.2}, 50, 5);
  const NnEnvData data =
      std::move(NnEnvData::Build(p.features, p.labels, p.envs, 20)).value();
  NnMetaIrmOptions options;
  options.inner_lr = 0.0;
  EXPECT_FALSE(TrainNnMetaIrm(data, 2, options).ok());
  options = NnMetaIrmOptions{};
  EXPECT_FALSE(TrainNnMetaIrm(data, 99, options).ok());  // wrong width
}

}  // namespace
}  // namespace lightmirm::train
