#include "linear/row_set.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace lightmirm::linear {
namespace {

// Columns whose position lists ColumnSums walks together.
constexpr size_t kColumnBlock = 8;

}  // namespace

RowSet::RowSet(const FeatureMatrix& x, std::vector<size_t> rows)
    : x_(&x), rows_(std::move(rows)) {
  assert(rows_.size() <= UINT32_MAX);
  if (x.dense_mode()) return;
  const size_t cols = x.cols();
  std::vector<size_t> counts(cols, 0);
  for (size_t r : rows_) {
    assert(r < x.rows());
    for (uint32_t c : x.SparseRow(r)) ++counts[c];
  }
  order_.resize(cols);
  std::iota(order_.begin(), order_.end(), uint32_t{0});
  std::sort(order_.begin(), order_.end(), [&](uint32_t a, uint32_t b) {
    return counts[a] != counts[b] ? counts[a] > counts[b] : a < b;
  });
  offsets_.assign(cols + 1, 0);
  std::vector<size_t> cursor(cols);
  for (size_t k = 0; k < cols; ++k) {
    cursor[order_[k]] = offsets_[k];
    offsets_[k + 1] = offsets_[k] + counts[order_[k]];
  }
  // Rows are visited in order, so every column's list comes out ascending.
  positions_.resize(offsets_[cols]);
  for (size_t i = 0; i < rows_.size(); ++i) {
    for (uint32_t c : x.SparseRow(rows_[i])) {
      positions_[cursor[c]++] = static_cast<uint32_t>(i);
    }
  }
}

void RowSet::ColumnSums(const double* coeffs, double* out) const {
  const size_t cols = x_->cols();
  if (x_->dense_mode()) {
    std::fill(out, out + cols, 0.0);
    for (size_t i = 0; i < rows_.size(); ++i) {
      // The per-row loop skipped zero coefficients: 0 * inf would add a
      // NaN it never added.
      const double a = coeffs[i];
      if (a == 0.0) continue;
      const double* row = x_->dense().Row(rows_[i]);
      for (size_t c = 0; c < cols; ++c) out[c] += a * row[c];
    }
    return;
  }
  const uint32_t* positions = positions_.data();
  size_t k = 0;
  for (; k + kColumnBlock <= cols; k += kColumnBlock) {
    const uint32_t* list[kColumnBlock];
    size_t len[kColumnBlock];
    for (size_t j = 0; j < kColumnBlock; ++j) {
      list[j] = positions + offsets_[k + j];
      len[j] = offsets_[k + j + 1] - offsets_[k + j];
    }
    // Lists run longest first: the block's last one is its shortest.
    const size_t shared = len[kColumnBlock - 1];
    double acc[kColumnBlock] = {};
    for (size_t t = 0; t < shared; ++t) {
      for (size_t j = 0; j < kColumnBlock; ++j) acc[j] += coeffs[list[j][t]];
    }
    for (size_t j = 0; j < kColumnBlock; ++j) {
      for (size_t t = shared; t < len[j]; ++t) acc[j] += coeffs[list[j][t]];
      out[order_[k + j]] = acc[j];
    }
  }
  for (; k < cols; ++k) {
    double acc = 0.0;
    for (size_t t = offsets_[k]; t < offsets_[k + 1]; ++t) {
      acc += coeffs[positions[t]];
    }
    out[order_[k]] = acc;
  }
}

}  // namespace lightmirm::linear
