// The row-blocked LR kernels against in-test copies of the per-row loops
// they replaced, compared as uint64 images: blocking may change which rows'
// dot products run together, never a bit of any result. Row lists cover
// the block edges (1, 7, 8, 9, 63, 64, 65 rows), strided and shuffled
// environment-like subsets, weights on and off, dense rows, leaf-encoded
// sparse rows, and sparse rows of unequal length (empty ones included).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "linear/feature_matrix.h"
#include "linear/logistic.h"
#include "linear/loss.h"

namespace lightmirm::linear {
namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectSameBits(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(Bits(got[i]), Bits(want[i])) << what << " [" << i << "]";
  }
}

// --- The per-row loops, as they were before row blocking and the
// column index. ---

double RefRowDot(const FeatureMatrix& x, size_t r,
                 const std::vector<double>& w) {
  double acc = 0.0;
  if (x.dense_mode()) {
    const double* row = x.dense().Row(r);
    for (size_t c = 0; c < x.cols(); ++c) acc += row[c] * w[c];
    return acc;
  }
  for (uint32_t c : x.SparseRow(r)) acc += w[c];
  return acc;
}

// out[j] += a * X[r][j] for every column j: the per-row scatter the
// column sums replaced, zero coefficients skipped as it skipped them.
void RefAddScaledRow(const FeatureMatrix& x, size_t r, double a,
                     std::vector<double>* out) {
  if (a == 0.0) return;
  if (x.dense_mode()) {
    const double* row = x.dense().Row(r);
    for (size_t c = 0; c < x.cols(); ++c) (*out)[c] += a * row[c];
    return;
  }
  for (uint32_t c : x.SparseRow(r)) (*out)[c] += a;
}

double RefSafeLog(double v) { return std::log(std::max(v, 1e-12)); }

double RefWeight(const LossContext& ctx, size_t r) {
  return ctx.weights != nullptr ? (*ctx.weights)[r] : 1.0;
}

double RefBceLoss(const LossContext& ctx, const std::vector<size_t>& rows,
                  const ParamVec& params) {
  double loss = 0.0, total_w = 0.0;
  for (size_t r : rows) {
    const double w = RefWeight(ctx, r);
    const double p = Sigmoid(RefRowDot(*ctx.x, r, params) + params.back());
    const int y = (*ctx.labels)[r];
    loss -= w * (y == 1 ? RefSafeLog(p) : RefSafeLog(1.0 - p));
    total_w += w;
  }
  return loss / total_w;
}

double RefBceLossGrad(const LossContext& ctx, const std::vector<size_t>& rows,
                      const ParamVec& params, ParamVec* grad) {
  grad->assign(params.size(), 0.0);
  double loss = 0.0, total_w = 0.0;
  for (size_t r : rows) {
    const double w = RefWeight(ctx, r);
    const double p = Sigmoid(RefRowDot(*ctx.x, r, params) + params.back());
    const int y = (*ctx.labels)[r];
    loss -= w * (y == 1 ? RefSafeLog(p) : RefSafeLog(1.0 - p));
    const double residual = w * (p - static_cast<double>(y));
    RefAddScaledRow(*ctx.x, r, residual, grad);
    grad->back() += residual;
    total_w += w;
  }
  const double inv_w = 1.0 / total_w;
  for (double& g : *grad) g *= inv_w;
  return loss * inv_w;
}

// Recomputes every probability from `params`.
void RefBceHvp(const LossContext& ctx, const std::vector<size_t>& rows,
               const ParamVec& params, const ParamVec& v, ParamVec* hv) {
  hv->assign(params.size(), 0.0);
  double total_w = 0.0;
  for (size_t r : rows) {
    const double w = RefWeight(ctx, r);
    const double p = Sigmoid(RefRowDot(*ctx.x, r, params) + params.back());
    const double s = p * (1.0 - p);
    const double xv = RefRowDot(*ctx.x, r, v) + v.back();
    const double coeff = w * s * xv;
    RefAddScaledRow(*ctx.x, r, coeff, hv);
    hv->back() += coeff;
    total_w += w;
  }
  const double inv_w = 1.0 / total_w;
  for (double& h : *hv) h *= inv_w;
}

// --- Inputs. ---

constexpr size_t kRows = 230;

struct Case {
  std::string name;
  FeatureMatrix x;
};

// Weights spread over many magnitudes, so any change in the association
// of a sum shows in its low bits.
std::vector<double> WideVector(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Normal() * std::exp(3.0 * rng.Normal());
  return v;
}

std::vector<Case> Matrices() {
  std::vector<Case> cases;
  Rng rng(3);
  {
    Matrix dense(kRows, 13);
    for (size_t r = 0; r < kRows; ++r) {
      for (size_t c = 0; c < 13; ++c) {
        dense.At(r, c) = rng.Bernoulli(0.2) ? 0.0 : rng.Normal(0.0, 3.0);
      }
    }
    cases.push_back({"dense", FeatureMatrix::FromDense(std::move(dense))});
  }
  {
    // Leaf encoding: one active column per tree, 12 trees of 25 leaves.
    std::vector<std::vector<uint32_t>> active(kRows);
    for (auto& row : active) {
      for (uint32_t t = 0; t < 12; ++t) {
        row.push_back(t * 25 + static_cast<uint32_t>(rng.UniformInt(25)));
      }
    }
    cases.push_back(
        {"leaf_encoded", *FeatureMatrix::FromSparseBinary(300, active)});
  }
  {
    // Unequal lengths, 0 to 20 active columns, so blocks finish tails of
    // different lengths after their shared prefix.
    std::vector<std::vector<uint32_t>> active(kRows);
    for (auto& row : active) {
      const size_t len = rng.UniformInt(21);
      for (size_t k = 0; k < len; ++k) {
        row.push_back(static_cast<uint32_t>(rng.UniformInt(300)));
      }
    }
    cases.push_back(
        {"ragged_sparse", *FeatureMatrix::FromSparseBinary(300, active)});
  }
  return cases;
}

std::vector<std::vector<size_t>> RowLists() {
  std::vector<std::vector<size_t>> lists;
  for (size_t n : {1u, 7u, 8u, 9u, 63u, 64u, 65u}) {
    lists.push_back(AllRows(n));
  }
  for (size_t stride : {3u, 7u}) {  // environment-like subsets
    std::vector<size_t> rows;
    for (size_t r = stride / 2; r < kRows; r += stride) rows.push_back(r);
    lists.push_back(rows);
  }
  std::vector<size_t> shuffled = AllRows(kRows);
  Rng rng(8);
  rng.Shuffle(&shuffled);
  shuffled.resize(101);
  lists.push_back(shuffled);
  lists.push_back(AllRows(kRows));
  return lists;
}

struct Labels {
  std::vector<int> labels;
  std::vector<double> weights;
};

Labels MakeLabels(uint64_t seed) {
  Rng rng(seed);
  Labels out;
  for (size_t r = 0; r < kRows; ++r) {
    out.labels.push_back(rng.Bernoulli(0.3) ? 1 : 0);
    out.weights.push_back(rng.Uniform(0.2, 2.0));
  }
  return out;
}

TEST(FeatureMatrixTest, RowDotsEqualRowDotBitForBit) {
  for (const Case& c : Matrices()) {
    const std::vector<double> w = WideVector(c.x.cols() + 1, 5);
    for (const std::vector<size_t>& rows : RowLists()) {
      std::vector<double> got(rows.size()), want(rows.size());
      c.x.RowDots(rows.data(), rows.size(), w, got.data());
      for (size_t i = 0; i < rows.size(); ++i) {
        want[i] = RefRowDot(c.x, rows[i], w);
      }
      ExpectSameBits(got, want,
                     c.name + " " + std::to_string(rows.size()) + " rows");
    }
  }
}

TEST(BceRowBlockTest, KernelsEqualPerRowLoopsBitForBit) {
  const Labels data = MakeLabels(11);
  for (const Case& c : Matrices()) {
    const ParamVec params = WideVector(c.x.cols() + 1, 12);
    const ParamVec v = WideVector(c.x.cols() + 1, 13);
    for (bool weighted : {false, true}) {
      const LossContext ctx{&c.x, &data.labels,
                            weighted ? &data.weights : nullptr};
      for (const std::vector<size_t>& rows : RowLists()) {
        const std::string what = c.name + (weighted ? " weighted " : " ") +
                                 std::to_string(rows.size()) + " rows";
        const RowSet set(c.x, rows);
        EXPECT_EQ(Bits(BceLoss(ctx, set, params)),
                  Bits(RefBceLoss(ctx, rows, params)))
            << what;

        ParamVec grad, ref_grad;
        const double loss = BceLossGrad(ctx, set, params, &grad);
        const double ref_loss = RefBceLossGrad(ctx, rows, params, &ref_grad);
        EXPECT_EQ(Bits(loss), Bits(ref_loss)) << what;
        ExpectSameBits(grad, ref_grad, what + " BceLossGrad");

        ParamVec grad_only;
        std::vector<double> probs;
        BceGrad(ctx, set, params, &grad_only, &probs);
        ExpectSameBits(grad_only, ref_grad, what + " BceGrad");
        std::vector<double> ref_probs;
        for (size_t r : rows) {
          ref_probs.push_back(
              Sigmoid(RefRowDot(c.x, r, params) + params.back()));
        }
        ExpectSameBits(probs, ref_probs, what + " probs");

        ParamVec hv, ref_hv;
        BceHvp(ctx, set, probs, v, &hv);
        RefBceHvp(ctx, rows, params, v, &ref_hv);
        ExpectSameBits(hv, ref_hv, what + " BceHvp");
      }
    }
  }
}

// The meta trainers hand the inner step's probabilities to the HVP instead
// of recomputing them at the same parameters.
TEST(BceHvpTest, CachedProbabilitiesGiveTheRecomputedHvp) {
  const Labels data = MakeLabels(17);
  const std::vector<Case> cases = Matrices();
  const FeatureMatrix& x = cases[1].x;  // leaf-encoded, as in training
  const LossContext ctx{&x, &data.labels, nullptr};
  const std::vector<size_t> rows = AllRows(kRows);
  const RowSet set(x, rows);
  const ParamVec params = WideVector(x.cols() + 1, 18);
  ParamVec grad;
  std::vector<double> probs;
  BceGrad(ctx, set, params, &grad, &probs);
  for (uint64_t seed : {19u, 20u, 21u}) {
    const ParamVec v = WideVector(x.cols() + 1, seed);
    ParamVec cached, recomputed;
    BceHvp(ctx, set, probs, v, &cached);
    RefBceHvp(ctx, rows, params, v, &recomputed);
    ExpectSameBits(cached, recomputed, "seed " + std::to_string(seed));
  }
}

TEST(LogisticModelTest, PredictRowsEqualsPredictRowAtAnyThreadCount) {
  // Enough rows for several pool shards, plus the small lists.
  Rng rng(23);
  std::vector<std::vector<uint32_t>> active(5000);
  for (auto& row : active) {
    for (uint32_t t = 0; t < 12; ++t) {
      row.push_back(t * 25 + static_cast<uint32_t>(rng.UniformInt(25)));
    }
  }
  const FeatureMatrix x = *FeatureMatrix::FromSparseBinary(300, active);
  LogisticModel model;
  model.set_params(WideVector(301, 24));
  std::vector<std::vector<size_t>> lists = RowLists();
  std::vector<size_t> strided;
  for (size_t r = 2; r < x.rows(); r += 3) strided.push_back(r);
  lists.push_back(strided);
  for (const std::vector<size_t>& rows : lists) {
    std::vector<double> want(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      want[i] = Sigmoid(RefRowDot(x, rows[i], model.params()) + model.bias());
    }
    for (int threads : {1, 2, 4}) {
      ScopedDefaultThreads scoped(threads);
      ExpectSameBits(model.PredictRows(x, rows), want,
                     std::to_string(rows.size()) + " rows at " +
                         std::to_string(threads) + " threads");
    }
  }
}

}  // namespace
}  // namespace lightmirm::linear
