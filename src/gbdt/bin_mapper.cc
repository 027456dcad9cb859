#include "gbdt/bin_mapper.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "common/thread_pool.h"

namespace lightmirm::gbdt {

BinMapper BinMapper::Fit(const std::vector<double>& values, int max_bins) {
  BinMapper mapper;
  if (max_bins < 2) return mapper;
  // NaN has no place in a strict weak order, so the quantiles come from the
  // other values; BinOf sends NaN to the last bin.
  std::vector<double> sorted;
  sorted.reserve(values.size());
  for (double v : values) {
    if (!std::isnan(v)) sorted.push_back(v);
  }
  if (sorted.empty()) return mapper;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  std::vector<double> bounds;
  bounds.reserve(static_cast<size_t>(max_bins));
  for (int b = 1; b < max_bins; ++b) {
    const size_t idx = std::min(
        n - 1, static_cast<size_t>(static_cast<double>(b) *
                                   static_cast<double>(n) / max_bins));
    const double q = sorted[idx];
    if (bounds.empty() || q > bounds.back()) bounds.push_back(q);
  }
  // Drop a trailing boundary equal to the max so the last bin is non-empty.
  while (!bounds.empty() && bounds.back() >= sorted.back()) {
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
  if (max_bins < 2 || max_bins > 65535) {
    return Status::InvalidArgument(
        StrFormat("max_bins must be in [2, 65535], got %d", max_bins));
  }
  if (raw.rows() == 0 || raw.cols() == 0) {
    return Status::InvalidArgument("cannot bin an empty matrix");
  }
  BinnedMatrix out;
  out.rows_ = raw.rows();
  out.mappers_.resize(raw.cols());
  out.bins_.resize(raw.cols());
  // Each feature is fitted and binned on its own and writes only its own
  // slots, so the result is the same at any thread count.
  ParallelFor(0, raw.cols(), 1, [&](size_t f) {
    std::vector<double> column(raw.rows());
    for (size_t r = 0; r < raw.rows(); ++r) column[r] = raw.At(r, f);
    out.mappers_[f] = BinMapper::Fit(column, max_bins);
    out.bins_[f].resize(raw.rows());
    for (size_t r = 0; r < raw.rows(); ++r) {
      out.bins_[f][r] = out.mappers_[f].BinOf(column[r]);
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
