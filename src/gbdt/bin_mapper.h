// Feature binning for histogram-based GBDT training, after LightGBM: each
// numeric feature is discretized into at most `max_bins` quantile bins; the
// tree learner then scans bin histograms instead of sorted raw values.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/result.h"

namespace lightmirm::gbdt {

/// Bin mapping for one feature: bin b covers
/// (upper_bounds[b-1], upper_bounds[b]], with bin 0 starting at -inf and
/// the last bin ending at +inf. NaN falls in the last bin, so training
/// sends it right at every split, as prediction does.
class BinMapper {
 public:
  BinMapper() = default;

  /// Builds quantile bins from the observed non-NaN values. Duplicated
  /// quantiles are collapsed, so features with few distinct values get few
  /// bins. Sorts its own copy of the values, so a caller done with them
  /// can move them in.
  static BinMapper Fit(std::vector<double> values, int max_bins);

  /// Number of bins (>= 1).
  int num_bins() const { return static_cast<int>(upper_bounds_.size()) + 1; }

  /// Bin index of a raw value, in [0, num_bins()).
  uint16_t BinOf(double value) const;

  /// Raw-value upper boundary of bin b (for turning a bin split back into
  /// a numeric threshold). b must be < num_bins() - 1.
  double UpperBound(int b) const { return upper_bounds_[b]; }

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }

 private:
  std::vector<double> upper_bounds_;
};

/// Features per block of the bin store, and per task of every block-wise
/// histogram kernel.
inline constexpr size_t kFeatureBlock = 8;

/// Number of kFeatureBlock-feature blocks covering `num_features`.
inline size_t NumFeatureBlocks(size_t num_features) {
  return (num_features + kFeatureBlock - 1) / kFeatureBlock;
}

/// Bin mappers and the binned values of a whole matrix. Bins are bytes,
/// stored row-major in blocks of kFeatureBlock features: block k holds
/// features [8k, 8k + BlockWidth(k)) as rows() x BlockWidth(k) bytes, so
/// one row's bins of a block sit side by side. Only the last block is
/// narrower than kFeatureBlock.
class BinnedMatrix {
 public:
  /// Largest max_bins a byte bin can index.
  static constexpr int kMaxBins = 256;

  /// Fits one BinMapper per column of `raw` and bins every value, one
  /// block of columns per parallel task. max_bins must be in
  /// [2, kMaxBins].
  static Result<BinnedMatrix> Build(const Matrix& raw, int max_bins);

  size_t rows() const { return rows_; }
  size_t num_features() const { return mappers_.size(); }
  const BinMapper& mapper(size_t f) const { return mappers_[f]; }

  size_t num_blocks() const { return NumFeatureBlocks(num_features()); }

  /// Features in block `block` (kFeatureBlock except for the last block).
  size_t BlockWidth(size_t block) const {
    return std::min(kFeatureBlock, num_features() - block * kFeatureBlock);
  }

  /// Bins of block `block`: row r's at [r * BlockWidth(block), +width).
  const uint8_t* BlockBins(size_t block) const {
    return bins_.data() + block * kFeatureBlock * rows_;
  }

  /// Bin of feature f in row r.
  uint8_t Bin(size_t f, size_t r) const {
    const size_t block = f / kFeatureBlock;
    return BlockBins(block)[r * BlockWidth(block) + f % kFeatureBlock];
  }

  int MaxBinCount() const;

 private:
  size_t rows_ = 0;
  std::vector<BinMapper> mappers_;
  std::vector<uint8_t> bins_;
};

}  // namespace lightmirm::gbdt
