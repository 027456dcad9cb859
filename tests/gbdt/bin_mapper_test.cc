#include "gbdt/bin_mapper.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/rng.h"

namespace lightmirm::gbdt {
namespace {

TEST(BinMapperTest, BinsAreOrderedAndCoverRange) {
  Rng rng(1);
  std::vector<double> values(1000);
  for (double& v : values) v = rng.Normal();
  const BinMapper mapper = BinMapper::Fit(values, 16);
  EXPECT_GT(mapper.num_bins(), 4);
  EXPECT_LE(mapper.num_bins(), 16);
  const auto& bounds = mapper.upper_bounds();
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]);
  }
}

TEST(BinMapperTest, BinOfRespectsBoundaries) {
  Rng rng(2);
  std::vector<double> values(500);
  for (double& v : values) v = rng.Uniform();
  const BinMapper mapper = BinMapper::Fit(values, 8);
  for (double v : values) {
    const uint16_t b = mapper.BinOf(v);
    ASSERT_LT(b, mapper.num_bins());
    // bin b covers (ub[b-1], ub[b]]
    if (b > 0) {
      EXPECT_GT(v, mapper.UpperBound(b - 1));
    }
    if (b + 1 < mapper.num_bins()) {
      EXPECT_LE(v, mapper.UpperBound(b));
    }
  }
}

TEST(BinMapperTest, ExtremeValuesLandInEdgeBins) {
  std::vector<double> values = {1, 2, 3, 4, 5, 6, 7, 8};
  const BinMapper mapper = BinMapper::Fit(values, 4);
  EXPECT_EQ(mapper.BinOf(-100.0), 0);
  EXPECT_EQ(mapper.BinOf(100.0), mapper.num_bins() - 1);
}

TEST(BinMapperTest, FewDistinctValuesCollapseBins) {
  std::vector<double> values(100, 1.0);
  values.resize(200, 1.0);
  for (size_t i = 0; i < 100; ++i) values.push_back(2.0);
  const BinMapper mapper = BinMapper::Fit(values, 32);
  EXPECT_LE(mapper.num_bins(), 3);
  EXPECT_NE(mapper.BinOf(1.0), mapper.BinOf(2.0));
}

TEST(BinMapperTest, ConstantFeatureGetsOneBin) {
  std::vector<double> values(100, 5.0);
  const BinMapper mapper = BinMapper::Fit(values, 16);
  EXPECT_EQ(mapper.num_bins(), 1);
  EXPECT_EQ(mapper.BinOf(5.0), 0);
  EXPECT_EQ(mapper.BinOf(99.0), 0);
}

TEST(BinMapperTest, NanValuesDoNotMoveTheBoundsAndBinLast) {
  Rng rng(4);
  std::vector<double> with_nan, without_nan;
  for (int i = 0; i < 2000; ++i) {
    if (rng.Bernoulli(0.3)) {
      with_nan.push_back(std::nan(""));
    } else {
      with_nan.push_back(rng.Normal());
      without_nan.push_back(with_nan.back());
    }
  }
  const BinMapper mapper = BinMapper::Fit(with_nan, 16);
  EXPECT_EQ(mapper.upper_bounds(),
            BinMapper::Fit(without_nan, 16).upper_bounds());
  EXPECT_EQ(mapper.num_bins(), 16);
  // NaN goes right of every split, in training as in prediction.
  EXPECT_EQ(mapper.BinOf(std::nan("")), mapper.num_bins() - 1);

  const BinMapper all_nan = BinMapper::Fit({std::nan(""), std::nan("")}, 16);
  EXPECT_EQ(all_nan.num_bins(), 1);
  EXPECT_EQ(all_nan.BinOf(std::nan("")), 0);
}

TEST(BinnedMatrixTest, BuildsAllColumns) {
  Rng rng(3);
  Matrix raw(200, 4);
  for (size_t r = 0; r < raw.rows(); ++r) {
    for (size_t c = 0; c < raw.cols(); ++c) raw.At(r, c) = rng.Normal();
  }
  const BinnedMatrix binned = *BinnedMatrix::Build(raw, 16);
  EXPECT_EQ(binned.rows(), 200u);
  EXPECT_EQ(binned.num_features(), 4u);
  EXPECT_LE(binned.MaxBinCount(), 16);
  for (size_t f = 0; f < 4; ++f) {
    for (size_t r = 0; r < 200; ++r) {
      EXPECT_EQ(binned.Bin(f, r), binned.mapper(f).BinOf(raw.At(r, f)));
    }
  }
}

// The block store at every block shape: one feature, a partial first
// block, exactly one block, one feature into a second block, and a
// partial second block. Every cell, read through Bin and through its
// block, is its mapper's bin of the raw value, including NaN rows and a
// one-bin constant column.
TEST(BinnedMatrixTest, EveryCellBinsLikeItsMapperAtEveryBlockShape) {
  for (size_t cols : {size_t{1}, size_t{7}, size_t{8}, size_t{9},
                      size_t{13}}) {
    Rng rng(40 + cols);
    const size_t rows = 300;
    const size_t constant = cols > 1 ? cols - 1 : cols;  // none for 1 col
    Matrix raw(rows, cols);
    for (size_t r = 0; r < rows; ++r) {
      const bool missing = rng.Bernoulli(0.2);
      for (size_t c = 0; c < cols; ++c) {
        raw.At(r, c) = missing         ? std::nan("")
                       : c == constant ? 2.5
                                       : rng.Normal();
      }
    }
    const BinnedMatrix binned = *BinnedMatrix::Build(raw, 16);
    ASSERT_EQ(binned.num_features(), cols);
    ASSERT_EQ(binned.num_blocks(), (cols + 7) / 8);
    if (constant < cols) {
      EXPECT_EQ(binned.mapper(constant).num_bins(), 1) << cols << " cols";
    }
    for (size_t f = 0; f < cols; ++f) {
      std::vector<double> column(rows);
      for (size_t r = 0; r < rows; ++r) column[r] = raw.At(r, f);
      EXPECT_EQ(binned.mapper(f).upper_bounds(),
                BinMapper::Fit(column, 16).upper_bounds());
      const size_t block = f / kFeatureBlock;
      const size_t width = binned.BlockWidth(block);
      ASSERT_EQ(width, std::min<size_t>(8, cols - 8 * block));
      for (size_t r = 0; r < rows; ++r) {
        const uint16_t want = binned.mapper(f).BinOf(raw.At(r, f));
        ASSERT_EQ(binned.Bin(f, r), want)
            << cols << " cols, feature " << f << " row " << r;
        ASSERT_EQ(binned.BlockBins(block)[r * width + f % kFeatureBlock],
                  want)
            << cols << " cols, feature " << f << " row " << r;
      }
    }
  }
}

// A byte bin holds 256 bins; one more is a Status, not a wrapped bin.
TEST(BinnedMatrixTest, AcceptsUpTo256Bins) {
  Rng rng(7);
  const size_t rows = 3000;
  Matrix raw(rows, 2);
  for (size_t r = 0; r < rows; ++r) {
    raw.At(r, 0) = rng.Normal();
    raw.At(r, 1) = rng.Uniform();
  }
  const Result<BinnedMatrix> binned = BinnedMatrix::Build(raw, 256);
  ASSERT_TRUE(binned.ok());
  EXPECT_EQ(binned->MaxBinCount(), 256);
  for (size_t f = 0; f < 2; ++f) {
    uint8_t top = 0;
    for (size_t r = 0; r < rows; ++r) {
      ASSERT_EQ(binned->Bin(f, r), binned->mapper(f).BinOf(raw.At(r, f)));
      top = std::max(top, binned->Bin(f, r));
    }
    EXPECT_EQ(top, binned->mapper(f).num_bins() - 1);
  }
  const Result<BinnedMatrix> too_many = BinnedMatrix::Build(raw, 257);
  ASSERT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.status().code(), StatusCode::kInvalidArgument);
}

TEST(BinnedMatrixTest, RejectsBadInputs) {
  EXPECT_FALSE(BinnedMatrix::Build(Matrix(0, 0), 16).ok());
  EXPECT_FALSE(BinnedMatrix::Build(Matrix(10, 2), 1).ok());
  EXPECT_FALSE(BinnedMatrix::Build(Matrix(10, 2), 100000).ok());
}

// Property: binning is monotone — larger values never get smaller bins.
class BinMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(BinMonotoneTest, BinOfIsMonotone) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  std::vector<double> values(400);
  for (double& v : values) v = rng.Normal(0.0, 3.0);
  const BinMapper mapper = BinMapper::Fit(values, GetParam() % 60 + 4);
  double prev = -10.0;
  for (double v = -10.0; v <= 10.0; v += 0.05) {
    EXPECT_LE(mapper.BinOf(prev), mapper.BinOf(v));
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinMonotoneTest,
                         ::testing::Values(2, 7, 19, 64, 255));

}  // namespace
}  // namespace lightmirm::gbdt
