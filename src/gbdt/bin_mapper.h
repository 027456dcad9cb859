// Feature binning for histogram-based GBDT training, after LightGBM: each
// numeric feature is discretized into at most `max_bins` quantile bins; the
// tree learner then scans bin histograms instead of sorted raw values.
#pragma once

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
  /// bins.
  static BinMapper Fit(const std::vector<double>& values, int max_bins);

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

/// Bin mappers and binned (feature-major) storage for a whole matrix.
class BinnedMatrix {
 public:
  /// Fits one BinMapper per column of `raw` and bins every value, one
  /// column per parallel task.
  static Result<BinnedMatrix> Build(const Matrix& raw, int max_bins);

  size_t rows() const { return rows_; }
  size_t num_features() const { return mappers_.size(); }
  const BinMapper& mapper(size_t f) const { return mappers_[f]; }

  /// Binned values of feature f (length rows()).
  const std::vector<uint16_t>& FeatureBins(size_t f) const {
    return bins_[f];
  }

  int MaxBinCount() const;

 private:
  size_t rows_ = 0;
  std::vector<BinMapper> mappers_;
  std::vector<std::vector<uint16_t>> bins_;
};

}  // namespace lightmirm::gbdt
