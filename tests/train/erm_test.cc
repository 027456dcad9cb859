#include "train/erm.h"

#include <gtest/gtest.h>

#include "metrics/roc.h"
#include "test_util.h"

namespace lightmirm::train {
namespace {

using testing::MakeEasyProblem;

TrainerOptions FastOptions() {
  TrainerOptions options;
  options.epochs = 150;
  options.optimizer.learning_rate = 0.2;
  return options;
}

TEST(ErmTrainerTest, LearnsSeparableProblem) {
  const auto p = MakeEasyProblem(3, 300, 1);
  ErmTrainer trainer(FastOptions());
  const TrainData data = p.Data();
  const TrainedPredictor predictor = *trainer.Fit(data);
  const auto scores = predictor.Predict(p.x, nullptr);
  EXPECT_GT(*metrics::Auc(p.labels, scores), 0.80);
  // The invariant feature must carry positive weight.
  EXPECT_GT(predictor.global.params()[0], 0.5);
}

TEST(ErmTrainerTest, DeterministicGivenSeed) {
  const auto p = MakeEasyProblem(2, 200, 2);
  ErmTrainer a(FastOptions()), b(FastOptions());
  const TrainData data = p.Data();
  const TrainedPredictor pa = *a.Fit(data);
  const TrainedPredictor pb = *b.Fit(data);
  for (size_t j = 0; j < pa.global.params().size(); ++j) {
    EXPECT_DOUBLE_EQ(pa.global.params()[j], pb.global.params()[j]);
  }
}

TEST(ErmTrainerTest, L2ShrinksWeights) {
  const auto p = MakeEasyProblem(2, 300, 3);
  TrainerOptions weak = FastOptions(), strong = FastOptions();
  weak.l2 = 0.0;
  strong.l2 = 5.0;
  const TrainData data = p.Data();
  const TrainedPredictor pw = *ErmTrainer(weak).Fit(data);
  const TrainedPredictor ps = *ErmTrainer(strong).Fit(data);
  EXPECT_LT(std::abs(ps.global.params()[0]),
            std::abs(pw.global.params()[0]));
}

TEST(ErmTrainerTest, EpochCallbackFiresEveryEpoch) {
  const auto p = MakeEasyProblem(2, 50, 4);
  TrainerOptions options = FastOptions();
  options.epochs = 7;
  int calls = 0;
  options.epoch_callback = [&](int epoch, const linear::LogisticModel&) {
    EXPECT_EQ(epoch, calls);
    ++calls;
  };
  const TrainData data = p.Data();
  (void)*ErmTrainer(options).Fit(data);
  EXPECT_EQ(calls, 7);
}

TEST(ErmTrainerTest, TimerRecordsSteps) {
  const auto p = MakeEasyProblem(2, 50, 5);
  StepTimer timer;
  TrainerOptions options = FastOptions();
  options.epochs = 5;
  options.timer = &timer;
  const TrainData data = p.Data();
  (void)*ErmTrainer(options).Fit(data);
  EXPECT_EQ(timer.Count(kStepBackward), 5);
  EXPECT_EQ(timer.Count(kStepEpoch), 5);
}

TEST(ErmTrainerTest, ValidationSnapshotBeatsOrMatchesFinal) {
  const auto p = MakeEasyProblem(2, 200, 6);
  const auto holdout = MakeEasyProblem(2, 200, 7);
  TrainerOptions options = FastOptions();
  options.validation_fn = [&](const linear::LogisticModel& model) {
    const auto scores = model.Predict(holdout.x);
    return *metrics::Auc(holdout.labels, scores);
  };
  const TrainData data = p.Data();
  const TrainedPredictor snap = *ErmTrainer(options).Fit(data);
  TrainerOptions plain = FastOptions();
  const TrainedPredictor last = *ErmTrainer(plain).Fit(data);
  const double snap_auc =
      *metrics::Auc(holdout.labels, snap.Predict(holdout.x, nullptr));
  const double last_auc =
      *metrics::Auc(holdout.labels, last.Predict(holdout.x, nullptr));
  EXPECT_GE(snap_auc + 1e-9, last_auc);
}

}  // namespace
}  // namespace lightmirm::train
