#include "linear/loss.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace lightmirm::linear {
namespace {

struct Problem {
  FeatureMatrix x;
  std::vector<int> labels;
  std::vector<double> weights;
  std::vector<size_t> rows;
  LossContext Ctx(bool weighted = false) const {
    return LossContext{&x, &labels, weighted ? &weights : nullptr};
  }
  RowSet Rows() const { return RowSet(x, rows); }
};

Problem MakeProblem(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix m(n, d);
  Problem p;
  p.labels.resize(n);
  p.weights.resize(n);
  for (size_t i = 0; i < n; ++i) {
    double z = 0.0;
    for (size_t j = 0; j < d; ++j) {
      m.At(i, j) = rng.Normal();
      z += 0.7 * m.At(i, j);
    }
    p.labels[i] = rng.Bernoulli(Sigmoid(z)) ? 1 : 0;
    p.weights[i] = rng.Uniform(0.2, 2.0);
    p.rows.push_back(i);
  }
  p.x = FeatureMatrix::FromDense(std::move(m));
  return p;
}

ParamVec RandomParams(size_t d, uint64_t seed) {
  Rng rng(seed);
  ParamVec params(d + 1);
  for (double& v : params) v = rng.Normal(0.0, 0.4);
  return params;
}

TEST(BceLossTest, MatchesHandComputedValue) {
  Matrix m(2, 1, {1.0, -1.0});
  FeatureMatrix x = FeatureMatrix::FromDense(std::move(m));
  std::vector<int> labels = {1, 0};
  const LossContext ctx{&x, &labels, nullptr};
  const ParamVec params = {2.0, 0.0};  // w=2, b=0
  const double p1 = Sigmoid(2.0), p0 = Sigmoid(-2.0);
  const double expected = 0.5 * (-std::log(p1) - std::log(1.0 - p0));
  EXPECT_NEAR(BceLoss(ctx, RowSet(x, {0, 1}), params), expected, 1e-12);
}

TEST(BceLossGradTest, GradMatchesFiniteDifferences) {
  const Problem p = MakeProblem(60, 4, 1);
  const ParamVec params = RandomParams(4, 2);
  ParamVec grad;
  BceLossGrad(p.Ctx(), p.Rows(), params, &grad);
  const double h = 1e-6;
  for (size_t j = 0; j < params.size(); ++j) {
    ParamVec plus = params, minus = params;
    plus[j] += h;
    minus[j] -= h;
    const double fd = (BceLoss(p.Ctx(), p.Rows(), plus) -
                       BceLoss(p.Ctx(), p.Rows(), minus)) /
                      (2.0 * h);
    EXPECT_NEAR(grad[j], fd, 1e-6) << "param " << j;
  }
}

TEST(BceLossGradTest, WeightedGradMatchesFiniteDifferences) {
  const Problem p = MakeProblem(40, 3, 3);
  const ParamVec params = RandomParams(3, 4);
  ParamVec grad;
  BceLossGrad(p.Ctx(true), p.Rows(), params, &grad);
  const double h = 1e-6;
  for (size_t j = 0; j < params.size(); ++j) {
    ParamVec plus = params, minus = params;
    plus[j] += h;
    minus[j] -= h;
    const double fd = (BceLoss(p.Ctx(true), p.Rows(), plus) -
                       BceLoss(p.Ctx(true), p.Rows(), minus)) /
                      (2.0 * h);
    EXPECT_NEAR(grad[j], fd, 1e-6) << "param " << j;
  }
}

TEST(BceLossGradTest, FusedLossEqualsPlainLoss) {
  const Problem p = MakeProblem(50, 3, 5);
  const ParamVec params = RandomParams(3, 6);
  ParamVec grad;
  EXPECT_NEAR(BceLossGrad(p.Ctx(), p.Rows(), params, &grad),
              BceLoss(p.Ctx(), p.Rows(), params), 1e-12);
}

TEST(BceLossTest, SubsetUsesOnlyGivenRows) {
  const Problem p = MakeProblem(30, 2, 7);
  const ParamVec params = RandomParams(2, 8);
  std::vector<size_t> half;
  for (size_t i = 0; i < 15; ++i) half.push_back(i);
  const double subset_loss = BceLoss(p.Ctx(), RowSet(p.x, half), params);
  // Equals the mean over those rows computed by hand.
  double manual = 0.0;
  for (size_t r : half) {
    const double prob = Sigmoid(p.x.RowDot(r, params) + params.back());
    manual -= p.labels[r] == 1 ? std::log(prob) : std::log(1.0 - prob);
  }
  EXPECT_NEAR(subset_loss, manual / 15.0, 1e-12);
}

TEST(BceHvpTest, MatchesFiniteDifferenceOfGradient) {
  const Problem p = MakeProblem(50, 4, 9);
  const ParamVec params = RandomParams(4, 10);
  Rng rng(11);
  ParamVec v(params.size());
  for (double& x : v) x = rng.Normal();
  ParamVec grad, hv;
  std::vector<double> probs;
  BceGrad(p.Ctx(), p.Rows(), params, &grad, &probs);
  BceHvp(p.Ctx(), p.Rows(), probs, v, &hv);
  // FD: (grad(params + h*v) - grad(params - h*v)) / 2h
  const double h = 1e-6;
  ParamVec plus = params, minus = params, gp, gm;
  for (size_t j = 0; j < params.size(); ++j) {
    plus[j] += h * v[j];
    minus[j] -= h * v[j];
  }
  BceLossGrad(p.Ctx(), p.Rows(), plus, &gp);
  BceLossGrad(p.Ctx(), p.Rows(), minus, &gm);
  for (size_t j = 0; j < params.size(); ++j) {
    EXPECT_NEAR(hv[j], (gp[j] - gm[j]) / (2.0 * h), 1e-5) << "param " << j;
  }
}

TEST(BceHvpTest, HessianIsPositiveSemiDefinite) {
  const Problem p = MakeProblem(80, 3, 12);
  const ParamVec params = RandomParams(3, 13);
  ParamVec grad;
  std::vector<double> probs;
  BceGrad(p.Ctx(), p.Rows(), params, &grad, &probs);
  Rng rng(14);
  for (int trial = 0; trial < 20; ++trial) {
    ParamVec v(params.size()), hv;
    for (double& x : v) x = rng.Normal();
    BceHvp(p.Ctx(), p.Rows(), probs, v, &hv);
    double quad = 0.0;
    for (size_t j = 0; j < v.size(); ++j) quad += v[j] * hv[j];
    EXPECT_GE(quad, -1e-12);
  }
}

TEST(AddL2Test, PenaltyExcludesBias) {
  const ParamVec params = {2.0, -3.0, 10.0};  // bias = 10
  ParamVec grad(3, 0.0);
  const double penalty = AddL2(params, 0.5, &grad);
  EXPECT_DOUBLE_EQ(penalty, 0.25 * (4.0 + 9.0));
  EXPECT_DOUBLE_EQ(grad[0], 1.0);
  EXPECT_DOUBLE_EQ(grad[1], -1.5);
  EXPECT_DOUBLE_EQ(grad[2], 0.0);  // bias untouched
}

TEST(AddL2Test, ZeroCoefficientIsNoOp) {
  const ParamVec params = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(AddL2(params, 0.0, nullptr), 0.0);
}

TEST(AllRowsTest, EnumeratesIndices) {
  const auto rows = AllRows(4);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0], 0u);
  EXPECT_EQ(rows[3], 3u);
}

}  // namespace
}  // namespace lightmirm::linear
