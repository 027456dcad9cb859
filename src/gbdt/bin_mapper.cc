#include "gbdt/bin_mapper.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "common/thread_pool.h"

namespace lightmirm::gbdt {

BinMapper BinMapper::Fit(std::vector<double> values, int max_bins) {
  BinMapper mapper;
  if (max_bins < 2) return mapper;
  // NaN has no place in a strict weak order, so the quantiles come from the
  // other values; BinOf sends NaN to the last bin.
  std::erase_if(values, [](double v) { return std::isnan(v); });
  if (values.empty()) return mapper;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(max_bins));
  for (int b = 1; b < max_bins; ++b) {
    const size_t idx = std::min(
        n - 1, static_cast<size_t>(static_cast<double>(b) *
                                   static_cast<double>(n) / max_bins));
    const double q = values[idx];
    if (bounds.empty() || q > bounds.back()) bounds.push_back(q);
  }
  // Drop a trailing boundary equal to the max so the last bin is non-empty.
  while (!bounds.empty() && bounds.back() >= values.back()) {
    bounds.pop_back();
  }
  mapper.upper_bounds_ = std::move(bounds);
  return mapper;
}

uint16_t BinMapper::BinOf(double value) const {
  // NaN fails every `value <= threshold` test, so prediction sends it right
  // at every split; the last bin sits right of every bin split too.
  if (std::isnan(value)) return static_cast<uint16_t>(upper_bounds_.size());
  // First bin whose upper bound is >= value.
  const auto it = std::lower_bound(upper_bounds_.begin(),
                                   upper_bounds_.end(), value);
  return static_cast<uint16_t>(it - upper_bounds_.begin());
}

Result<BinnedMatrix> BinnedMatrix::Build(const Matrix& raw, int max_bins) {
  if (max_bins < 2 || max_bins > kMaxBins) {
    return Status::InvalidArgument(StrFormat(
        "max_bins must be in [2, %d], got %d", kMaxBins, max_bins));
  }
  if (raw.rows() == 0 || raw.cols() == 0) {
    return Status::InvalidArgument("cannot bin an empty matrix");
  }
  const size_t rows = raw.rows();
  BinnedMatrix out;
  out.rows_ = rows;
  out.mappers_.resize(raw.cols());
  out.bins_.resize(rows * raw.cols());
  // Each block of features is fitted and binned on its own and writes only
  // its own slots, so the result is the same at any thread count.
  ParallelFor(0, out.num_blocks(), 1, [&](size_t block) {
    const size_t first = block * kFeatureBlock;
    const size_t width = out.BlockWidth(block);
    // One column at a time is fitted, so a task holds one column's copy.
    for (size_t j = first; j < first + width; ++j) {
      std::vector<double> column(rows);
      for (size_t r = 0; r < rows; ++r) column[r] = raw.At(r, j);
      out.mappers_[j] = BinMapper::Fit(std::move(column), max_bins);
    }
    // One pass over the raw rows, reading each row's `width` adjacent
    // values once.
    const BinMapper* mappers = out.mappers_.data() + first;
    uint8_t* bins = out.bins_.data() + first * rows;
    for (size_t r = 0; r < rows; ++r) {
      const double* values = raw.Row(r) + first;
      for (size_t j = 0; j < width; ++j) {
        bins[r * width + j] =
            static_cast<uint8_t>(mappers[j].BinOf(values[j]));
      }
    }
  });
  return out;
}

int BinnedMatrix::MaxBinCount() const {
  int max_bins = 1;
  for (const BinMapper& m : mappers_) {
    max_bins = std::max(max_bins, m.num_bins());
  }
  return max_bins;
}

}  // namespace lightmirm::gbdt
