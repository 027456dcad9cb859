// RowSet's column pass against an in-test per-row scatter, compared as
// uint64 images: summing each column along its position list must give
// the scatter's bits exactly. Cases cover ragged rows with repeated ids
// and empty rows, shuffled and repeated row lists, columns no listed row
// holds, zero and -0.0 coefficients, dense rows, and the loss kernels over
// TrainData's row sets (weights on and off) indexed at 1, 2 and 4 threads.
#include "linear/row_set.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "linear/loss.h"
#include "train/trainer.h"

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

// The per-row scatter: out[c] += coeffs[i] * X[rows[i]][c] over a zeroed
// `out`, rows in list order, zero coefficients skipped.
std::vector<double> ScatterSums(const FeatureMatrix& x,
                                const std::vector<size_t>& rows,
                                const std::vector<double>& coeffs) {
  std::vector<double> out(x.cols(), 0.0);
  for (size_t i = 0; i < rows.size(); ++i) {
    const double a = coeffs[i];
    if (a == 0.0) continue;
    if (x.dense_mode()) {
      const double* row = x.dense().Row(rows[i]);
      for (size_t c = 0; c < x.cols(); ++c) out[c] += a * row[c];
    } else {
      for (uint32_t c : x.SparseRow(rows[i])) out[c] += a;
    }
  }
  return out;
}

std::vector<double> GatherSums(const FeatureMatrix& x,
                               const std::vector<size_t>& rows,
                               const std::vector<double>& coeffs) {
  std::vector<double> out(x.cols(), 99.0);
  RowSet(x, rows).ColumnSums(coeffs.data(), out.data());
  return out;
}

// Coefficients over many magnitudes (so a changed association shows in
// the low bits), with +0.0 and -0.0 mixed in.
std::vector<double> Coefficients(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) {
    const uint64_t kind = rng.UniformInt(8);
    x = kind == 0 ? 0.0
        : kind == 1 ? -0.0
                    : rng.Normal() * std::exp(3.0 * rng.Normal());
  }
  return v;
}

constexpr size_t kRows = 300;
constexpr size_t kCols = 97;

// Rows of 0 to 30 ids drawn from the first 90 columns (the last 7 are
// never held), each row repeating some of its ids; every 9th row empty.
FeatureMatrix RaggedWithRepeats() {
  Rng rng(41);
  std::vector<std::vector<uint32_t>> active(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    if (r % 9 == 0) continue;
    const size_t len = rng.UniformInt(31);
    for (size_t k = 0; k < len; ++k) {
      const uint32_t c = static_cast<uint32_t>(rng.UniformInt(90));
      active[r].push_back(c);
      if (rng.Bernoulli(0.2)) active[r].push_back(c);
    }
  }
  return *FeatureMatrix::FromSparseBinary(kCols, active);
}

// One id per "tree": 8 trees of 12 leaves, leaf sizes skewed.
FeatureMatrix LeafEncoded() {
  Rng rng(43);
  std::vector<std::vector<uint32_t>> active(kRows);
  for (auto& row : active) {
    for (uint32_t t = 0; t < 8; ++t) {
      const double u = rng.Uniform();
      row.push_back(t * 12 + static_cast<uint32_t>(11.99 * u * u));
    }
  }
  return *FeatureMatrix::FromSparseBinary(8 * 12, active);
}

std::vector<std::vector<size_t>> RowLists() {
  std::vector<std::vector<size_t>> lists;
  lists.push_back(AllRows(kRows));
  lists.push_back({5});
  lists.push_back({0, 9, 18});  // empty rows only
  std::vector<size_t> shuffled = AllRows(kRows);
  Rng rng(47);
  rng.Shuffle(&shuffled);
  lists.push_back(shuffled);
  shuffled.resize(37);  // leaves many columns unheld
  lists.push_back(shuffled);
  std::vector<size_t> repeated;
  for (size_t r = 0; r < 50; ++r) {
    repeated.push_back(r % 17);
    if (r % 3 == 0) repeated.push_back(r % 17);
  }
  lists.push_back(repeated);
  return lists;
}

TEST(RowSetTest, ColumnSumsEqualPerRowScatterBitForBit) {
  Rng rng(53);
  Matrix dense(kRows, 11);
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t c = 0; c < 11; ++c) {
      dense.At(r, c) = rng.Bernoulli(0.3) ? 0.0 : rng.Normal(0.0, 3.0);
    }
  }
  const std::vector<std::pair<std::string, FeatureMatrix>> matrices = {
      {"ragged", RaggedWithRepeats()},
      {"leaf", LeafEncoded()},
      {"dense", FeatureMatrix::FromDense(std::move(dense))}};
  uint64_t seed = 60;
  for (const auto& [name, x] : matrices) {
    for (const std::vector<size_t>& rows : RowLists()) {
      const std::vector<double> coeffs = Coefficients(rows.size(), ++seed);
      ExpectSameBits(GatherSums(x, rows, coeffs), ScatterSums(x, rows, coeffs),
                     name + " " + std::to_string(rows.size()) + " rows");
    }
  }
}

TEST(RowSetTest, UnheldColumnsArePositiveZero) {
  const FeatureMatrix x = RaggedWithRepeats();
  // Every coefficient -0.0: a scatter that skipped them leaves +0.0
  // everywhere, and so must the gather.
  const std::vector<size_t> rows = AllRows(kRows);
  const std::vector<double> coeffs(rows.size(), -0.0);
  const std::vector<double> sums = GatherSums(x, rows, coeffs);
  for (size_t c = 0; c < kCols; ++c) EXPECT_EQ(Bits(sums[c]), Bits(0.0)) << c;
  // Columns 90..96 appear in no row: +0.0 whatever the coefficients.
  const std::vector<double> wide = Coefficients(rows.size(), 71);
  const std::vector<double> mixed = GatherSums(x, rows, wide);
  for (size_t c = 90; c < kCols; ++c) EXPECT_EQ(Bits(mixed[c]), Bits(0.0));
}

TEST(RowSetTest, ZeroCoefficientsAddNothing) {
  const FeatureMatrix x =
      *FeatureMatrix::FromSparseBinary(3, {{0, 1}, {1, 2}, {0}});
  const std::vector<double> sums =
      GatherSums(x, {0, 1, 2}, {0.0, 2.5, -0.0});
  EXPECT_EQ(Bits(sums[0]), Bits(0.0));
  EXPECT_EQ(Bits(sums[1]), Bits(2.5));
  EXPECT_EQ(Bits(sums[2]), Bits(2.5));
}

// --- The loss kernels over TrainData's row sets. ---

double RefDot(const FeatureMatrix& x, size_t r, const ParamVec& w) {
  double acc = 0.0;
  for (uint32_t c : x.SparseRow(r)) acc += w[c];
  return acc;
}

// The parent's per-row gradient and HVP loops.
void RefGradAndHvp(const LossContext& ctx, const std::vector<size_t>& rows,
                   const ParamVec& params, const ParamVec& v, ParamVec* grad,
                   ParamVec* hv) {
  std::vector<double> residuals, hv_coeffs;
  double bias = 0.0, hv_bias = 0.0, total_w = 0.0;
  for (size_t r : rows) {
    const double w = ctx.weights != nullptr ? (*ctx.weights)[r] : 1.0;
    const double p = Sigmoid(RefDot(*ctx.x, r, params) + params.back());
    residuals.push_back(w * (p - static_cast<double>((*ctx.labels)[r])));
    bias += residuals.back();
    const double xv = RefDot(*ctx.x, r, v) + v.back();
    hv_coeffs.push_back(w * (p * (1.0 - p)) * xv);
    hv_bias += hv_coeffs.back();
    total_w += w;
  }
  *grad = ScatterSums(*ctx.x, rows, residuals);
  grad->push_back(bias);
  *hv = ScatterSums(*ctx.x, rows, hv_coeffs);
  hv->push_back(hv_bias);
  const double inv_w = 1.0 / total_w;
  for (double& g : *grad) g *= inv_w;
  for (double& h : *hv) h *= inv_w;
}

TEST(RowSetTest, TrainDataKernelsMatchScatterAtAnyIndexThreadCount) {
  const FeatureMatrix x = LeafEncoded();
  Rng rng(59);
  std::vector<int> labels(kRows), envs(kRows);
  std::vector<double> weights(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    labels[r] = rng.Bernoulli(0.3) ? 1 : 0;
    envs[r] = static_cast<int>(rng.UniformInt(5)) * 7;
    weights[r] = rng.Uniform(0.2, 2.0);
  }
  ParamVec params(x.cols() + 1), v(x.cols() + 1);
  for (double& p : params) p = rng.Normal() * std::exp(2.0 * rng.Normal());
  for (double& p : v) p = rng.Normal() * std::exp(2.0 * rng.Normal());
  std::vector<size_t> include = AllRows(kRows);
  rng.Shuffle(&include);
  include.resize(250);
  for (int threads : {1, 2, 4}) {
    ScopedDefaultThreads scoped(threads);
    for (bool weighted : {false, true}) {
      const std::vector<double>* w = weighted ? &weights : nullptr;
      const train::TrainData data = *train::TrainData::Create(
          &x, &labels, &envs, 10, w, &include);
      const LossContext ctx = data.Context();
      const RowSet pooled(x, data.all_rows);
      std::vector<const RowSet*> sets = {&pooled};
      for (const RowSet& set : data.env_rows) sets.push_back(&set);
      for (const RowSet* set : sets) {
        const std::string what = std::to_string(threads) + " threads" +
                                 (weighted ? " weighted " : " ") +
                                 std::to_string(set->size()) + " rows";
        ParamVec ref_grad, ref_hv, grad, hv;
        RefGradAndHvp(ctx, set->rows(), params, v, &ref_grad, &ref_hv);
        BceLossGrad(ctx, *set, params, &grad);
        ExpectSameBits(grad, ref_grad, what + " BceLossGrad");
        std::vector<double> probs;
        BceGrad(ctx, *set, params, &grad, &probs);
        ExpectSameBits(grad, ref_grad, what + " BceGrad");
        BceHvp(ctx, *set, probs, v, &hv);
        ExpectSameBits(hv, ref_hv, what + " BceHvp");
      }
    }
  }
}

}  // namespace
}  // namespace lightmirm::linear
