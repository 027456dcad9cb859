#include "train/light_mirm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "metrics/roc.h"
#include "test_util.h"
#include "train/meta_irm.h"
#include "train/mrq.h"

namespace lightmirm::train {
namespace {

using testing::MakeEasyProblem;
using testing::MakeIrmProblem;

TrainerOptions FastOptions() {
  TrainerOptions options;
  options.epochs = 120;
  options.optimizer.learning_rate = 0.15;
  return options;
}

TEST(LightMirmGradientTest, SampledGradientIsUnbiasedStructure) {
  // With mrq_length = 1 and a fresh queue, the replayed meta-loss equals
  // the sampled environment's loss exactly, and the outer gradient matches
  // the meta-IRM gradient computed on that single sampled environment.
  const auto p = MakeIrmProblem({0.9, 0.5, 0.2}, 40, 1);
  const TrainData data = p.Data(5);
  const linear::LossContext ctx = data.Context();
  linear::ParamVec params = {0.4, -0.3, 0.1};

  LightMirmOptions options;
  options.mrq_length = 1;
  options.gamma = 1.0;
  options.lambda = 0.0;
  options.inner_lr = 0.25;
  std::vector<MetaLossReplayQueue> queues(
      data.NumTasks(), *MetaLossReplayQueue::Create(1, 1.0));
  MetaStepOutput out;
  Rng rng(7);
  ASSERT_TRUE(LightMirmOuterGradient(ctx, data, params, options, &rng,
                                     StepTelemetry{}, &queues, &out)
                  .ok());
  // Each queue now holds exactly the sampled loss.
  for (size_t m = 0; m < data.NumTasks(); ++m) {
    EXPECT_DOUBLE_EQ(queues[m].ReplayedLoss(), out.meta_losses[m]);
    EXPECT_GT(out.meta_losses[m], 0.0);
  }
  // Gradient is finite and nonzero.
  double norm = 0.0;
  for (double g : out.outer_grad) norm += g * g;
  EXPECT_GT(norm, 0.0);
  EXPECT_TRUE(std::isfinite(norm));
}

TEST(LightMirmGradientTest, ReplayedLossUsesHistory) {
  const auto p = MakeIrmProblem({0.9, 0.5}, 40, 2);
  const TrainData data = p.Data(5);
  const linear::LossContext ctx = data.Context();
  linear::ParamVec params = {0.1, 0.1, 0.0};
  LightMirmOptions options;
  options.mrq_length = 3;
  options.gamma = 0.5;
  std::vector<MetaLossReplayQueue> queues(
      data.NumTasks(), *MetaLossReplayQueue::Create(3, 0.5));
  MetaStepOutput out;
  Rng rng(8);
  // After three iterations the queues are full; the replayed loss must be
  // the decayed sum of the three pushes.
  std::vector<std::vector<double>> pushed(data.NumTasks());
  for (int it = 0; it < 3; ++it) {
    ASSERT_TRUE(LightMirmOuterGradient(ctx, data, params, options, &rng,
                                       StepTelemetry{}, &queues, &out)
                    .ok());
    for (size_t m = 0; m < data.NumTasks(); ++m) {
      pushed[m].push_back(queues[m].values().back());
    }
  }
  for (size_t m = 0; m < data.NumTasks(); ++m) {
    const double expected = 0.25 * pushed[m][0] + 0.5 * pushed[m][1] +
                            1.0 * pushed[m][2];
    EXPECT_NEAR(out.meta_losses[m], expected, 1e-12);
  }
}

TEST(LightMirmTrainerTest, LearnsAndPrefersInvariantFeature) {
  const auto p = MakeIrmProblem({0.95, 0.8, 0.2, 0.05}, 400, 3);
  const TrainData data = p.Data();
  LightMirmOptions light;
  light.inner_lr = 0.3;
  LightMirmTrainer trainer(FastOptions(), light);
  EXPECT_EQ(trainer.Name(), "LightMIRM");
  const TrainedPredictor predictor = *trainer.Fit(data);
  EXPECT_GT(testing::InvariantWeightShare(predictor.global), 0.6);
  const auto scores = predictor.Predict(p.x, nullptr);
  EXPECT_GT(*metrics::Auc(p.labels, scores), 0.75);
}

TEST(LightMirmTrainerTest, MuchCheaperThanCompleteMetaIrm) {
  // Count loss-kernel work via the step timer: the meta-loss step of
  // complete meta-IRM scales with M-1 sampled envs per task, LightMIRM
  // with 1 — so its meta-loss time must be well below meta-IRM's.
  // The fastest of three fits on each side, so one preemption of a
  // millisecond-scale fit on a loaded host cannot decide the comparison.
  const auto p = MakeIrmProblem(std::vector<double>(10, 0.7), 300, 4);
  const TrainData data = p.Data();
  TrainerOptions options = FastOptions();
  options.epochs = 15;
  double meta_seconds = 1e300, light_seconds = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    StepTimer meta_timer, light_timer;
    options.timer = &meta_timer;
    (void)*MetaIrmTrainer(options, MetaIrmOptions{}).Fit(data);
    options.timer = &light_timer;
    (void)*LightMirmTrainer(options, LightMirmOptions{}).Fit(data);
    meta_seconds =
        std::min(meta_seconds, meta_timer.TotalSeconds(kStepMetaLosses));
    light_seconds =
        std::min(light_seconds, light_timer.TotalSeconds(kStepMetaLosses));
  }
  EXPECT_LT(light_seconds * 3.0, meta_seconds);
}

TEST(LightMirmTrainerTest, RejectsBadConfig) {
  const auto p = MakeIrmProblem({0.9, 0.5}, 50, 5);
  const TrainData data = p.Data();
  LightMirmOptions light;
  light.inner_lr = -1.0;
  EXPECT_FALSE(LightMirmTrainer(FastOptions(), light).Fit(data).ok());
  light = LightMirmOptions{};
  light.mrq_length = 0;
  EXPECT_FALSE(LightMirmTrainer(FastOptions(), light).Fit(data).ok());
  light = LightMirmOptions{};
  light.gamma = 0.0;
  EXPECT_FALSE(LightMirmTrainer(FastOptions(), light).Fit(data).ok());
}

TEST(LightMirmTrainerTest, NeedsTwoEnvironments) {
  const auto p = MakeEasyProblem(1, 80, 6);
  const TrainData data = p.Data();
  EXPECT_FALSE(
      LightMirmTrainer(FastOptions(), LightMirmOptions{}).Fit(data).ok());
}

TEST(LightMirmTrainerTest, DeterministicGivenSeed) {
  const auto p = MakeIrmProblem({0.8, 0.4, 0.6}, 100, 7);
  const TrainData data = p.Data();
  TrainerOptions options = FastOptions();
  options.epochs = 25;
  const TrainedPredictor a =
      *LightMirmTrainer(options, LightMirmOptions{}).Fit(data);
  const TrainedPredictor b =
      *LightMirmTrainer(options, LightMirmOptions{}).Fit(data);
  for (size_t j = 0; j < a.global.params().size(); ++j) {
    EXPECT_DOUBLE_EQ(a.global.params()[j], b.global.params()[j]);
  }
}

// Property sweep over MRQ lengths: training stays finite and functional.
class LightMirmLengthTest : public ::testing::TestWithParam<size_t> {};

TEST_P(LightMirmLengthTest, TrainsWithAnyQueueLength) {
  const auto p = MakeIrmProblem({0.9, 0.3, 0.6}, 150, 8);
  const TrainData data = p.Data();
  TrainerOptions options = FastOptions();
  options.epochs = 40;
  LightMirmOptions light;
  light.mrq_length = GetParam();
  const TrainedPredictor predictor =
      *LightMirmTrainer(options, light).Fit(data);
  const auto scores = predictor.Predict(p.x, nullptr);
  EXPECT_GT(*metrics::Auc(p.labels, scores), 0.65);
}

INSTANTIATE_TEST_SUITE_P(Lengths, LightMirmLengthTest,
                         ::testing::Values(1, 2, 5, 9));

}  // namespace
}  // namespace lightmirm::train
