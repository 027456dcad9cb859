// Properties of the one epoch loop (FitByEpochs) checked through every
// trainer that runs it: the epoch callback, the Table III step counts, the
// trajectory series names and the best-epoch snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "test_util.h"
#include "train/erm.h"
#include "train/group_dro.h"
#include "train/irmv1.h"
#include "train/light_mirm.h"
#include "train/meta_irm.h"
#include "train/vrex.h"

namespace lightmirm::train {
namespace {

using testing::MakeIrmProblem;

constexpr int kEpochs = 6;

struct LoopTrainer {
  const char* name;
  std::function<std::unique_ptr<Trainer>(const TrainerOptions&)> make;
  /// Trajectory series names (without the metrics prefix), or empty.
  const char* loss_series;
  const char* penalty_series;
};

void PrintTo(const LoopTrainer& trainer, std::ostream* os) {
  *os << trainer.name;
}

class EpochLoopTest : public ::testing::TestWithParam<LoopTrainer> {
 protected:
  EpochLoopTest() : problem_(MakeIrmProblem({0.9, 0.6, 0.3}, 60, 11)) {}

  TrainerOptions Options() const {
    TrainerOptions options;
    options.epochs = kEpochs;
    options.optimizer.learning_rate = 0.2;
    return options;
  }

  Result<TrainedPredictor> Fit(const TrainerOptions& options) const {
    const TrainData data = problem_.Data();
    return GetParam().make(options)->Fit(data);
  }

  testing::EnvProblem problem_;
};

TEST_P(EpochLoopTest, EpochCallbackFiresEveryEpochInOrder) {
  TrainerOptions options = Options();
  std::vector<int> epochs;
  options.epoch_callback = [&](int epoch, const linear::LogisticModel&) {
    epochs.push_back(epoch);
  };
  ASSERT_TRUE(Fit(options).ok());
  ASSERT_EQ(epochs.size(), static_cast<size_t>(kEpochs));
  for (int e = 0; e < kEpochs; ++e) EXPECT_EQ(epochs[e], e);
}

TEST_P(EpochLoopTest, EveryTableIIIStepIsRecordedOncePerEpoch) {
  TrainerOptions options = Options();
  StepTimer timer;
  options.timer = &timer;
  ASSERT_TRUE(Fit(options).ok());
  EXPECT_EQ(timer.Count(kStepEpoch), kEpochs);
  EXPECT_EQ(timer.Count(kStepBackward), kEpochs);
  for (const char* step :
       {kStepInnerOptimization, kStepMetaLosses, kStepBackward}) {
    if (timer.Count(step) > 0) {
      EXPECT_EQ(timer.Count(step), kEpochs) << step;
    }
  }
}

TEST_P(EpochLoopTest, TrajectorySeriesKeepTheirNames) {
  TrainerOptions options = Options();
  obs::MetricsRegistry registry;
  options.metrics = &registry;
  options.metrics_prefix = "t.";
  ASSERT_TRUE(Fit(options).ok());
  std::vector<std::string> expected;
  if (GetParam().loss_series != nullptr) {
    for (int env : {0, 1, 2}) {
      expected.push_back(std::string("t.") + GetParam().loss_series +
                         ".env_" + std::to_string(env));
    }
    expected.push_back(std::string("t.") + GetParam().penalty_series);
  }
  std::vector<std::string> names;
  for (const auto& [name, series] : registry.AllSeries()) {
    names.push_back(name);
    EXPECT_EQ(series->Size(), static_cast<size_t>(kEpochs)) << name;
  }
  std::sort(names.begin(), names.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(names, expected);
}

TEST_P(EpochLoopTest, ValidationReturnsTheBestEpochsParameters) {
  TrainerOptions options = Options();
  std::vector<linear::ParamVec> seen;
  options.epoch_callback = [&](int, const linear::LogisticModel& model) {
    seen.push_back(model.params());
  };
  // Peaks at epoch 2, then falls: the loop must return epoch 2's model.
  const std::vector<double> scores = {0.1, 0.5, 0.9, 0.7, 0.3, 0.2};
  int call = 0;
  options.validation_fn = [&](const linear::LogisticModel&) {
    return scores[call++];
  };
  const Result<TrainedPredictor> fit = Fit(options);
  ASSERT_TRUE(fit.ok());
  ASSERT_EQ(call, kEpochs);
  ASSERT_EQ(seen.size(), static_cast<size_t>(kEpochs));
  EXPECT_EQ(fit->global.params(), seen[2]);
  EXPECT_NE(seen[2], seen.back());
}

INSTANTIATE_TEST_SUITE_P(
    Trainers, EpochLoopTest,
    ::testing::Values(
        LoopTrainer{"Erm",
                    [](const TrainerOptions& o) {
                      return std::make_unique<ErmTrainer>(o);
                    },
                    nullptr, nullptr},
        LoopTrainer{"GroupDro",
                    [](const TrainerOptions& o) {
                      return std::make_unique<GroupDroTrainer>(
                          o, GroupDroOptions{});
                    },
                    "risk", "weighted_risk"},
        LoopTrainer{"VRex",
                    [](const TrainerOptions& o) {
                      return std::make_unique<VRexTrainer>(o, VRexOptions{});
                    },
                    "risk", "variance_penalty"},
        LoopTrainer{"IrmV1",
                    [](const TrainerOptions& o) {
                      return std::make_unique<IrmV1Trainer>(o,
                                                            IrmV1Options{});
                    },
                    "risk", "grad_penalty"},
        LoopTrainer{"MetaIrm",
                    [](const TrainerOptions& o) {
                      return std::make_unique<MetaIrmTrainer>(
                          o, MetaIrmOptions{});
                    },
                    "meta_loss", "sigma_penalty"},
        LoopTrainer{"LightMirm",
                    [](const TrainerOptions& o) {
                      return std::make_unique<LightMirmTrainer>(
                          o, LightMirmOptions{});
                    },
                    "meta_loss", "sigma_penalty"}));

}  // namespace
}  // namespace lightmirm::train
