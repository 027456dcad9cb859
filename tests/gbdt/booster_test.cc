#include "gbdt/booster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "linear/logistic.h"
#include "metrics/roc.h"

namespace lightmirm::gbdt {
namespace {

struct Binary {
  Matrix features;
  std::vector<int> labels;
};

// Nonlinear but learnable binary problem.
Binary MakeProblem(size_t n, uint64_t seed) {
  Rng rng(seed);
  Binary p{Matrix(n, 4), std::vector<int>(n)};
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 4; ++j) p.features.At(i, j) = rng.Normal();
    const double logit = 1.5 * p.features.At(i, 0) -
                         1.0 * p.features.At(i, 1) * p.features.At(i, 1) +
                         0.8;
    p.labels[i] = rng.Bernoulli(linear::Sigmoid(logit)) ? 1 : 0;
  }
  return p;
}

BoosterOptions SmallOptions() {
  BoosterOptions options;
  options.num_trees = 20;
  options.tree.max_leaves = 8;
  return options;
}

TEST(BoosterTest, TrainingLossDecreasesMonotonically) {
  const Binary p = MakeProblem(2000, 1);
  const Booster booster =
      *Booster::Train(p.features, p.labels, SmallOptions());
  const auto& history = booster.train_loss_history();
  ASSERT_EQ(history.size(), 20u);
  for (size_t t = 1; t < history.size(); ++t) {
    EXPECT_LE(history[t], history[t - 1] + 1e-9) << "iteration " << t;
  }
  EXPECT_LT(history.back(), 0.8 * history.front());
}

TEST(BoosterTest, LearnsTheProblem) {
  const Binary train = MakeProblem(4000, 2);
  const Binary test = MakeProblem(2000, 3);
  const Booster booster =
      *Booster::Train(train.features, train.labels, SmallOptions());
  const std::vector<double> scores = booster.PredictProbs(test.features);
  EXPECT_GT(*metrics::Auc(test.labels, scores), 0.80);
}

TEST(BoosterTest, BaseScoreMatchesLogOddsOfBaseRate) {
  const Binary p = MakeProblem(1000, 4);
  const Booster booster =
      *Booster::Train(p.features, p.labels, SmallOptions());
  double pos = 0.0;
  for (int y : p.labels) pos += y;
  const double rate = pos / static_cast<double>(p.labels.size());
  EXPECT_NEAR(booster.base_score(), std::log(rate / (1.0 - rate)), 1e-9);
}

TEST(BoosterTest, PredictLeavesWithinRange) {
  const Binary p = MakeProblem(500, 5);
  const Booster booster =
      *Booster::Train(p.features, p.labels, SmallOptions());
  std::vector<int> leaves;
  for (size_t i = 0; i < 50; ++i) {
    booster.PredictLeaves(p.features.Row(i), &leaves);
    ASSERT_EQ(leaves.size(), booster.trees().size());
    for (size_t t = 0; t < leaves.size(); ++t) {
      EXPECT_GE(leaves[t], 0);
      EXPECT_LT(leaves[t], booster.trees()[t].num_leaves());
    }
  }
}

TEST(BoosterTest, TotalLeavesSumsTreeLeafCounts) {
  const Binary p = MakeProblem(500, 6);
  const Booster booster =
      *Booster::Train(p.features, p.labels, SmallOptions());
  int total = 0;
  for (const Tree& t : booster.trees()) total += t.num_leaves();
  EXPECT_EQ(booster.TotalLeaves(), total);
  EXPECT_GT(total, 20);
}

TEST(BoosterTest, DeterministicGivenSeed) {
  const Binary p = MakeProblem(800, 7);
  const Booster a = *Booster::Train(p.features, p.labels, SmallOptions());
  const Booster b = *Booster::Train(p.features, p.labels, SmallOptions());
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.PredictLogit(p.features.Row(i)),
                     b.PredictLogit(p.features.Row(i)));
  }
}

// Training updates the scores from each tree's leaf partition rather
// than by predicting every row; the loss history, taken from those
// scores, must equal the one recomputed from the trees' predictions bit
// for bit. (3,000 rows: one 4,096-row loss shard, summed in row order.)
TEST(BoosterTest, TrainingScoresEqualTreePredictions) {
  const Binary p = MakeProblem(3000, 41);
  const BoosterOptions options = SmallOptions();
  const Booster booster = *Booster::Train(p.features, p.labels, options);
  const size_t n = p.features.rows();
  std::vector<double> scores(n, booster.base_score());
  ASSERT_EQ(booster.train_loss_history().size(), booster.trees().size());
  for (size_t t = 0; t < booster.trees().size(); ++t) {
    double loss = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double prob = linear::Sigmoid(scores[i]);
      const double y = static_cast<double>(p.labels[i]);
      loss -= y * std::log(std::max(prob, 1e-12)) +
              (1.0 - y) * std::log(std::max(1.0 - prob, 1e-12));
    }
    const double mean = loss / static_cast<double>(n);
    uint64_t want, got;
    std::memcpy(&want, &mean, sizeof(want));
    std::memcpy(&got, &booster.train_loss_history()[t], sizeof(got));
    EXPECT_EQ(got, want) << "tree " << t;
    for (size_t i = 0; i < n; ++i) {
      scores[i] += booster.trees()[t].Predict(p.features.Row(i));
    }
  }
}

TEST(BoosterTest, BaggingStillLearns) {
  const Binary train = MakeProblem(3000, 8);
  BoosterOptions options = SmallOptions();
  options.bagging_fraction = 0.6;
  const Booster booster =
      *Booster::Train(train.features, train.labels, options);
  const std::vector<double> scores = booster.PredictProbs(train.features);
  EXPECT_GT(*metrics::Auc(train.labels, scores), 0.75);
}

TEST(BoosterTest, RejectsBadInputs) {
  const Binary p = MakeProblem(100, 9);
  BoosterOptions options = SmallOptions();
  EXPECT_FALSE(Booster::Train(Matrix(), {}, options).ok());
  EXPECT_FALSE(
      Booster::Train(p.features, {0, 1}, options).ok());  // size mismatch
  options.num_trees = 0;
  EXPECT_FALSE(Booster::Train(p.features, p.labels, options).ok());
  options = SmallOptions();
  options.bagging_fraction = 0.0;
  EXPECT_FALSE(Booster::Train(p.features, p.labels, options).ok());
  // single class
  std::vector<int> ones(p.labels.size(), 1);
  EXPECT_FALSE(Booster::Train(p.features, ones, SmallOptions()).ok());
  // bad label value
  std::vector<int> bad = p.labels;
  bad[0] = 7;
  EXPECT_FALSE(Booster::Train(p.features, bad, SmallOptions()).ok());
}

TEST(BoosterTest, NanRowsTrainWhereTheyPredict) {
  // Feature 0 is missing on ~30% of rows, and every such row defaults; the
  // rest default at 30% regardless of feature 0. Prediction sends NaN right
  // at every split, so training must put the NaN rows there too for their
  // leaf to learn their default rate.
  Rng rng(11);
  const size_t n = 2000;
  Matrix features(n, 1);
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) {
      features.At(i, 0) = std::nan("");
      labels[i] = 1;
    } else {
      features.At(i, 0) = rng.Normal();
      labels[i] = rng.Bernoulli(0.3) ? 1 : 0;
    }
  }
  BoosterOptions options;
  options.num_trees = 1;
  options.max_bins = 16;
  const Booster booster = *Booster::Train(features, labels, options);
  const std::vector<double> scores = booster.PredictProbs(features);
  std::vector<double> other_scores;
  double lowest_nan_score = 1.0;
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(features.At(i, 0))) {
      lowest_nan_score = std::min(lowest_nan_score, scores[i]);
    } else {
      other_scores.push_back(scores[i]);
    }
  }
  std::nth_element(other_scores.begin(),
                   other_scores.begin() + other_scores.size() / 2,
                   other_scores.end());
  const double majority = other_scores[other_scores.size() / 2];
  EXPECT_GT(lowest_nan_score, majority + 0.03);
}

// Property: more trees never hurt training loss.
class BoosterDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(BoosterDepthTest, MoreTreesLowerTrainLoss) {
  const Binary p = MakeProblem(1500, 10);
  BoosterOptions few = SmallOptions(), many = SmallOptions();
  few.num_trees = GetParam();
  many.num_trees = GetParam() * 2;
  const Booster a = *Booster::Train(p.features, p.labels, few);
  const Booster b = *Booster::Train(p.features, p.labels, many);
  EXPECT_LE(b.train_loss_history().back(),
            a.train_loss_history().back() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(TreeCounts, BoosterDepthTest,
                         ::testing::Values(5, 10, 20));

}  // namespace
}  // namespace lightmirm::gbdt
