#include "gbdt/histogram.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace lightmirm::gbdt {
namespace {

BinnedMatrix MakeBinned(size_t rows, size_t cols, uint64_t seed,
                        Matrix* raw_out = nullptr) {
  Rng rng(seed);
  Matrix raw(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) raw.At(r, c) = rng.Normal();
  }
  if (raw_out != nullptr) *raw_out = raw;
  return *BinnedMatrix::Build(raw, 8);
}

TEST(NodeHistogramTest, BuildAccumulatesStats) {
  const BinnedMatrix binned = MakeBinned(100, 2, 1);
  std::vector<double> grads(100, 1.0), hessians(100, 0.5);
  std::vector<size_t> rows;
  for (size_t i = 0; i < 100; ++i) rows.push_back(i);
  NodeHistogram hist(2, binned.MaxBinCount());
  hist.Build(binned, rows, grads, hessians);
  double total_grad = 0.0, total_count = 0.0;
  for (int b = 0; b < binned.mapper(0).num_bins(); ++b) {
    total_grad += hist.At(0, b).grad;
    total_count += hist.At(0, b).count;
  }
  EXPECT_DOUBLE_EQ(total_grad, 100.0);
  EXPECT_DOUBLE_EQ(total_count, 100.0);
}

TEST(NodeHistogramTest, SubtractionRecoversSibling) {
  const BinnedMatrix binned = MakeBinned(200, 3, 2);
  Rng rng(3);
  std::vector<double> grads(200), hessians(200);
  for (size_t i = 0; i < 200; ++i) {
    grads[i] = rng.Normal();
    hessians[i] = rng.Uniform(0.1, 1.0);
  }
  std::vector<size_t> all, left, right;
  for (size_t i = 0; i < 200; ++i) {
    all.push_back(i);
    (i % 3 == 0 ? left : right).push_back(i);
  }
  NodeHistogram parent(3, binned.MaxBinCount());
  NodeHistogram small(3, binned.MaxBinCount());
  NodeHistogram derived(3, binned.MaxBinCount());
  NodeHistogram direct(3, binned.MaxBinCount());
  parent.Build(binned, all, grads, hessians);
  small.Build(binned, left, grads, hessians);
  derived.SubtractFrom(parent, small);
  direct.Build(binned, right, grads, hessians);
  for (size_t f = 0; f < 3; ++f) {
    for (int b = 0; b < binned.mapper(f).num_bins(); ++b) {
      EXPECT_NEAR(derived.At(f, b).grad, direct.At(f, b).grad, 1e-9);
      EXPECT_NEAR(derived.At(f, b).hess, direct.At(f, b).hess, 1e-9);
      EXPECT_NEAR(derived.At(f, b).count, direct.At(f, b).count, 1e-9);
    }
  }
}

TEST(SplitSearchTest, FindsObviousSplit) {
  // Feature 0 perfectly separates gradient signs at value 0.
  const size_t n = 400;
  Matrix raw(n, 1);
  std::vector<double> grads(n), hessians(n, 1.0);
  for (size_t i = 0; i < n; ++i) {
    raw.At(i, 0) = (i < n / 2) ? -1.0 - 0.001 * i : 1.0 + 0.001 * i;
    grads[i] = (i < n / 2) ? -1.0 : 1.0;
  }
  const BinnedMatrix binned = *BinnedMatrix::Build(raw, 16);
  std::vector<size_t> rows;
  for (size_t i = 0; i < n; ++i) rows.push_back(i);
  NodeHistogram hist(1, binned.MaxBinCount());
  hist.Build(binned, rows, grads, hessians);
  SplitOptions options;
  const SplitInfo split = FindBestSplit(
      hist, {binned.mapper(0).num_bins()}, 0.0, static_cast<double>(n),
      static_cast<double>(n), options);
  ASSERT_TRUE(split.valid);
  EXPECT_EQ(split.feature, 0);
  EXPECT_NEAR(split.left_count, n / 2.0, 2.0);
  EXPECT_DOUBLE_EQ(split.left_count + split.right_count,
                   static_cast<double>(n));
  EXPECT_LT(split.left_grad, 0.0);
  EXPECT_GT(split.right_grad, 0.0);
  EXPECT_GT(split.gain, 100.0);
}

TEST(SplitSearchTest, RespectsMinDataInLeaf) {
  const size_t n = 30;
  Matrix raw(n, 1);
  std::vector<double> grads(n, 0.0), hessians(n, 1.0);
  for (size_t i = 0; i < n; ++i) {
    raw.At(i, 0) = static_cast<double>(i);
    grads[i] = i < 2 ? -10.0 : 1.0;  // best cut isolates 2 rows
  }
  const BinnedMatrix binned = *BinnedMatrix::Build(raw, 32);
  std::vector<size_t> rows;
  for (size_t i = 0; i < n; ++i) rows.push_back(i);
  NodeHistogram hist(1, binned.MaxBinCount());
  hist.Build(binned, rows, grads, hessians);
  SplitOptions options;
  options.min_data_in_leaf = 10.0;
  double total_grad = 0.0;
  for (double g : grads) total_grad += g;
  const SplitInfo split = FindBestSplit(
      hist, {binned.mapper(0).num_bins()}, total_grad,
      static_cast<double>(n), static_cast<double>(n), options);
  if (split.valid) {
    EXPECT_GE(split.left_count, 10.0);
    EXPECT_GE(split.right_count, 10.0);
  }
}

TEST(SplitSearchTest, FeatureMaskDisablesFeatures) {
  const BinnedMatrix binned = MakeBinned(100, 2, 5);
  Rng rng(6);
  std::vector<double> grads(100), hessians(100, 1.0);
  for (double& g : grads) g = rng.Normal();
  std::vector<size_t> rows;
  for (size_t i = 0; i < 100; ++i) rows.push_back(i);
  NodeHistogram hist(2, binned.MaxBinCount());
  hist.Build(binned, rows, grads, hessians);
  SplitOptions options;
  options.min_data_in_leaf = 1.0;
  options.min_gain = 0.0;
  options.feature_mask = {0, 1};  // only feature 1 allowed
  double total_grad = 0.0;
  for (double g : grads) total_grad += g;
  const SplitInfo split = FindBestSplit(
      hist,
      {binned.mapper(0).num_bins(), binned.mapper(1).num_bins()},
      total_grad, 100.0, 100.0, options);
  if (split.valid) {
    EXPECT_EQ(split.feature, 1);
  }
}

TEST(LeafMathTest, OutputAndScore) {
  EXPECT_DOUBLE_EQ(LeafOutput(-4.0, 3.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(NodeScore(-4.0, 3.0, 1.0), 4.0);
}

}  // namespace
}  // namespace lightmirm::gbdt
