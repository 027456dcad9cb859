#include "linear/feature_matrix.h"

#include <gtest/gtest.h>

#include "linear/row_set.h"

namespace lightmirm::linear {
namespace {

TEST(FeatureMatrixTest, DenseRowDotAndColumnSums) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  const FeatureMatrix fm = FeatureMatrix::FromDense(std::move(m));
  EXPECT_TRUE(fm.dense_mode());
  EXPECT_EQ(fm.rows(), 2u);
  EXPECT_EQ(fm.cols(), 3u);
  const std::vector<double> w = {1.0, 0.0, -1.0, /*bias slot*/ 99.0};
  EXPECT_DOUBLE_EQ(fm.RowDot(0, w), -2.0);
  EXPECT_DOUBLE_EQ(fm.RowDot(1, w), -2.0);
  const double coeffs[] = {2.0};
  std::vector<double> acc(3, 1.0);
  RowSet(fm, {1}).ColumnSums(coeffs, acc.data());
  EXPECT_DOUBLE_EQ(acc[0], 8.0);
  EXPECT_DOUBLE_EQ(acc[2], 12.0);
}

TEST(FeatureMatrixTest, SparseBinaryBasics) {
  const FeatureMatrix fm =
      *FeatureMatrix::FromSparseBinary(5, {{0, 2}, {4}, {}});
  EXPECT_FALSE(fm.dense_mode());
  EXPECT_EQ(fm.rows(), 3u);
  EXPECT_EQ(fm.cols(), 5u);
  const std::vector<double> w = {1, 2, 3, 4, 5, /*bias*/ 0};
  EXPECT_DOUBLE_EQ(fm.RowDot(0, w), 4.0);
  EXPECT_DOUBLE_EQ(fm.RowDot(1, w), 5.0);
  EXPECT_DOUBLE_EQ(fm.RowDot(2, w), 0.0);
  const double coeffs[] = {3.0};
  std::vector<double> acc(5, 1.0);
  RowSet(fm, {0}).ColumnSums(coeffs, acc.data());
  EXPECT_DOUBLE_EQ(acc[0], 3.0);
  EXPECT_DOUBLE_EQ(acc[1], 0.0);
  EXPECT_DOUBLE_EQ(acc[2], 3.0);
}

TEST(FeatureMatrixTest, SparseRejectsOutOfRangeColumn) {
  EXPECT_FALSE(FeatureMatrix::FromSparseBinary(3, {{3}}).ok());
}

TEST(FeatureMatrixTest, CsrFormMatchesNestedForm) {
  const FeatureMatrix nested =
      *FeatureMatrix::FromSparseBinary(6, {{0, 2}, {}, {5, 5, 1}});
  const FeatureMatrix csr =
      *FeatureMatrix::FromSparseBinary(6, {0, 2, 2, 5}, {0, 2, 5, 5, 1});
  ASSERT_EQ(csr.rows(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    const auto a = nested.SparseRow(r), b = csr.SparseRow(r);
    EXPECT_EQ(std::vector<uint32_t>(a.begin(), a.end()),
              std::vector<uint32_t>(b.begin(), b.end()));
  }
}

TEST(FeatureMatrixTest, CsrRejectsInconsistentOffsets) {
  EXPECT_FALSE(FeatureMatrix::FromSparseBinary(4, {}, {}).ok());
  EXPECT_FALSE(FeatureMatrix::FromSparseBinary(4, {1, 2}, {0, 1}).ok());
  EXPECT_FALSE(FeatureMatrix::FromSparseBinary(4, {0, 1}, {0, 1}).ok());
  EXPECT_FALSE(FeatureMatrix::FromSparseBinary(4, {0, 2, 1, 2}, {0, 1}).ok());
  EXPECT_FALSE(FeatureMatrix::FromSparseBinary(4, {0, 1}, {4}).ok());
  EXPECT_TRUE(FeatureMatrix::FromSparseBinary(4, {0}, {}).ok());
}

TEST(FeatureMatrixTest, MeanRowNnz) {
  const FeatureMatrix sparse =
      *FeatureMatrix::FromSparseBinary(10, {{1, 2}, {3, 4, 5}, {6}});
  EXPECT_DOUBLE_EQ(sparse.MeanRowNnz(), 2.0);
  Matrix m(2, 3, {0, 1, 0, 2, 0, 3});
  const FeatureMatrix dense = FeatureMatrix::FromDense(std::move(m));
  EXPECT_DOUBLE_EQ(dense.MeanRowNnz(), 1.5);
}

TEST(FeatureMatrixTest, SparseAndDenseAgreeOnSameContent) {
  // Same logical matrix in both representations.
  Matrix m(3, 4, 0.0);
  m.At(0, 1) = 1.0;
  m.At(1, 0) = 1.0;
  m.At(1, 3) = 1.0;
  const FeatureMatrix dense = FeatureMatrix::FromDense(m);
  const FeatureMatrix sparse =
      *FeatureMatrix::FromSparseBinary(4, {{1}, {0, 3}, {}});
  const std::vector<double> w = {0.5, -1.0, 2.0, 3.0, 0.0};
  const double coeffs[] = {1.7};
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_DOUBLE_EQ(dense.RowDot(r, w), sparse.RowDot(r, w));
    std::vector<double> a(4), b(4);
    RowSet(dense, {r}).ColumnSums(coeffs, a.data());
    RowSet(sparse, {r}).ColumnSums(coeffs, b.data());
    for (size_t j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(a[j], b[j]);
  }
}

}  // namespace
}  // namespace lightmirm::linear
