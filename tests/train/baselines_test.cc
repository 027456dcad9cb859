// Tests for the baseline trainers: ERM + fine-tuning, Up-sampling,
// Group DRO, V-REx, IRMv1.
#include <gtest/gtest.h>

#include <cmath>

#include "linear/loss.h"
#include "metrics/roc.h"
#include "test_util.h"
#include "train/fine_tune.h"
#include "train/group_dro.h"
#include "train/irmv1.h"
#include "train/up_sampling.h"
#include "train/vrex.h"

namespace lightmirm::train {
namespace {

using testing::MakeEasyProblem;
using testing::MakeIrmProblem;

TrainerOptions FastOptions() {
  TrainerOptions options;
  options.epochs = 150;
  options.optimizer.learning_rate = 0.2;
  return options;
}

TEST(FineTuneTest, ProducesPerEnvOverrides) {
  const auto p = MakeEasyProblem(3, 150, 1);
  FineTuneTrainer trainer(FastOptions(), FineTuneOptions{});
  const TrainData data = p.Data();
  const TrainedPredictor predictor = *trainer.Fit(data);
  EXPECT_EQ(predictor.per_env.size(), 3u);
  const auto scores = predictor.Predict(p.x, &p.envs);
  EXPECT_GT(*metrics::Auc(p.labels, scores), 0.80);
}

TEST(FineTuneTest, AdaptsToEnvironmentSpecificPattern) {
  // Environment 1's spurious pattern is strong and *locally* valid;
  // fine-tuning on env 1 should pick up more of feature 1 than the pooled
  // model does.
  const auto p = MakeIrmProblem({0.5, 0.95}, 400, 2);
  FineTuneOptions ft;
  ft.fine_tune_epochs = 80;
  ft.proximal = 0.0;
  FineTuneTrainer trainer(FastOptions(), ft);
  const TrainData data = p.Data();
  const TrainedPredictor predictor = *trainer.Fit(data);
  const double pooled_w1 = predictor.global.params()[1];
  const double env1_w1 = predictor.per_env.at(1).params()[1];
  EXPECT_GT(env1_w1, pooled_w1);
}

TEST(UpSamplingTest, EquivalentWeightsHelpSmallEnvironment) {
  // env 0 large with flipped spurious feature, env 1 small with aligned
  // pattern: up-weighting env 1 shifts the learned weight on feature 1 up.
  const auto big = MakeIrmProblem({0.2, 0.9}, 100, 3);
  // Rebuild with imbalanced env sizes.
  Rng rng(4);
  const size_t n0 = 900, n1 = 100;
  Matrix m(n0 + n1, 2);
  std::vector<int> labels(n0 + n1), envs(n0 + n1);
  for (size_t i = 0; i < n0 + n1; ++i) {
    const bool in_big = i < n0;
    envs[i] = in_big ? 0 : 1;
    const double causal = rng.Normal();
    const int y = rng.Bernoulli(linear::Sigmoid(2.0 * causal)) ? 1 : 0;
    const double agree = in_big ? 0.2 : 0.9;
    const double sign = rng.Bernoulli(agree) ? 1.0 : -1.0;
    m.At(i, 0) = causal + 0.3 * rng.Normal();
    m.At(i, 1) = sign * (y == 1 ? 1.0 : -1.0) + 0.5 * rng.Normal();
    labels[i] = y;
  }
  const auto x = linear::FeatureMatrix::FromDense(std::move(m));
  const TrainData data =
      std::move(TrainData::Create(&x, &labels, &envs, 10)).value();

  ErmTrainer erm(FastOptions());
  UpSamplingTrainer up(FastOptions(), UpSamplingTrainerOptions{1.0, 0.0});
  const double w_erm = (*erm.Fit(data)).global.params()[1];
  const double w_up = (*up.Fit(data)).global.params()[1];
  EXPECT_GT(w_up, w_erm);
  (void)big;
}

// Up-sampling is the pooled ERM fit under its weights: with env 1 at a
// ninth of env 0's size and target_fraction 1, every env-1 row weighs 9.
TEST(UpSamplingTest, EqualsPooledErmGivenTheSameWeights) {
  const auto p = MakeIrmProblem({0.8, 0.3}, 100, 12);
  std::vector<int> envs(p.envs.size());
  std::vector<double> weights(p.envs.size());
  for (size_t i = 0; i < envs.size(); ++i) {
    envs[i] = i % 10 == 0 ? 1 : 0;
    weights[i] = envs[i] == 1 ? 9.0 : 1.0;
  }
  const TrainData plain =
      std::move(TrainData::Create(&p.x, &p.labels, &envs, 10)).value();
  const TrainData weighted = std::move(
      TrainData::Create(&p.x, &p.labels, &envs, 10, &weights)).value();
  const TrainedPredictor up =
      *UpSamplingTrainer(FastOptions(), UpSamplingTrainerOptions{1.0, 0.0})
           .Fit(plain);
  const TrainedPredictor erm = *ErmTrainer(FastOptions()).Fit(weighted);
  EXPECT_EQ(up.global.params(), erm.global.params());
}

TEST(UpSamplingTest, RejectsBadFraction) {
  const auto p = MakeEasyProblem(2, 50, 5);
  UpSamplingTrainer trainer(FastOptions(), UpSamplingTrainerOptions{0.0, 0});
  const TrainData data = p.Data();
  EXPECT_FALSE(trainer.Fit(data).ok());
}

TEST(GroupDroTest, FocusesOnWorstGroup) {
  // The pooled ERM optimum favors env 0 (its spurious pattern is much
  // stronger), leaving env 1 with a higher risk; Group DRO's worst-group
  // weighting should shrink that risk gap.
  const auto p = MakeIrmProblem({0.95, 0.55}, 400, 6);
  const TrainData data = p.Data();
  GroupDroOptions dro;
  dro.group_step = 0.3;
  dro.l2_multiplier = 1.0;
  GroupDroTrainer trainer(FastOptions(), dro);
  const TrainedPredictor predictor = *trainer.Fit(data);
  // Per-env risks at the solution should be closer together than ERM's.
  ErmTrainer erm(FastOptions());
  const TrainedPredictor erm_pred = *erm.Fit(data);
  const linear::LossContext ctx = data.Context();
  auto risk_gap = [&](const TrainedPredictor& pr) {
    const double r0 =
        linear::BceLoss(ctx, data.env_rows[0], pr.global.params());
    const double r1 =
        linear::BceLoss(ctx, data.env_rows[1], pr.global.params());
    return std::abs(r0 - r1);
  };
  EXPECT_LT(risk_gap(predictor), risk_gap(erm_pred) + 1e-6);
}

TEST(VRexTest, ReducesCrossEnvRiskVariance) {
  const auto p = MakeIrmProblem({0.95, 0.05}, 400, 7);
  const TrainData data = p.Data();
  const linear::LossContext ctx = data.Context();
  VRexTrainer vrex(FastOptions(), VRexOptions{20.0});
  ErmTrainer erm(FastOptions());
  auto variance = [&](const TrainedPredictor& pr) {
    std::vector<double> risks;
    for (const auto& rows : data.env_rows) {
      risks.push_back(linear::BceLoss(ctx, rows, pr.global.params()));
    }
    double mean = 0.0;
    for (double r : risks) mean += r / risks.size();
    double var = 0.0;
    for (double r : risks) var += (r - mean) * (r - mean) / risks.size();
    return var;
  };
  EXPECT_LT(variance(*vrex.Fit(data)), variance(*erm.Fit(data)));
}

TEST(IrmV1Test, PenaltyPushesWeightOffSpuriousFeature) {
  // Feature 1 helps with opposite optimal scaling per env; the IRMv1
  // penalty should shrink its weight relative to ERM.
  const auto p = MakeIrmProblem({0.95, 0.3}, 600, 8);
  const TrainData data = p.Data();
  IrmV1Options irm;
  irm.penalty_weight = 50.0;
  IrmV1Trainer trainer(FastOptions(), irm);
  ErmTrainer erm(FastOptions());
  const double w_irm = std::abs((*trainer.Fit(data)).global.params()[1]);
  const double w_erm = std::abs((*erm.Fit(data)).global.params()[1]);
  EXPECT_LT(w_irm, w_erm);
}

TEST(IrmV1Test, ZeroPenaltyMatchesErmDirection) {
  const auto p = MakeEasyProblem(2, 200, 9);
  const TrainData data = p.Data();
  IrmV1Options irm;
  irm.penalty_weight = 0.0;
  const TrainedPredictor a = *IrmV1Trainer(FastOptions(), irm).Fit(data);
  const TrainedPredictor b = *ErmTrainer(FastOptions()).Fit(data);
  // Not identical (different gradient aggregation) but strongly aligned.
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (size_t j = 0; j < a.global.params().size(); ++j) {
    dot += a.global.params()[j] * b.global.params()[j];
    na += a.global.params()[j] * a.global.params()[j];
    nb += b.global.params()[j] * b.global.params()[j];
  }
  EXPECT_GT(dot / std::sqrt(na * nb), 0.95);
}

}  // namespace
}  // namespace lightmirm::train
