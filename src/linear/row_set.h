// RowSet: the rows of one FeatureMatrix that a loss kernel runs over (one
// environment, or the pooled training rows), together with the index its
// gradient side sums along.
//
// The LR gradient and Hessian-vector kernels reduce to
//   out[c] = sum_i coeffs[i] * X[rows[i]][c]
// with one coefficient per row. A per-row scatter adds each coefficient
// into every column the row holds, one dependent read-modify-write per
// (row, tree) entry. For sparse-binary rows a RowSet instead keeps, for
// every column, the ascending positions i of the rows that hold it, so
// each column's sum is a gather along its own position list. Each column
// is still one add chain from +0.0 in row order, the association the
// scatter had, so the result is the scatter's bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "linear/feature_matrix.h"

namespace lightmirm::linear {

/// An ordered list of rows of a FeatureMatrix plus its column index.
class RowSet {
 public:
  RowSet() = default;

  /// Indexes `rows` of `x`: every entry must be below x.rows(), and there
  /// must be fewer than 2^32 of them. `x` must outlive the set. A row may
  /// be listed more than once.
  RowSet(const FeatureMatrix& x, std::vector<size_t> rows);

  /// The matrix the rows belong to (call only on a constructed set).
  const FeatureMatrix& matrix() const { return *x_; }
  const std::vector<size_t>& rows() const { return rows_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  size_t operator[](size_t i) const { return rows_[i]; }
  std::vector<size_t>::const_iterator begin() const { return rows_.begin(); }
  std::vector<size_t>::const_iterator end() const { return rows_.end(); }

  /// out[c] = sum_i coeffs[i] * X[rows[i]][c] for every c below
  /// matrix().cols(), with `coeffs` aligned with rows(). Every column is
  /// summed in row order from +0.0: the bits of a per-row loop that adds
  /// coeffs[i] * X[rows[i]] into a zeroed `out`. Sparse columns run 8 at
  /// a time, their add chains interleaved; dense rows keep the row loop
  /// (skipping zero coefficients, which for sparse rows cannot change a
  /// sum that starts at +0.0).
  void ColumnSums(const double* coeffs, double* out) const;

 private:
  const FeatureMatrix* x_ = nullptr;
  std::vector<size_t> rows_;
  // Sparse matrices only. Column order_[k] is held by the rows at
  // positions positions_[offsets_[k], offsets_[k + 1]), ascending, a
  // position repeated once per repeat of the id in its row. Columns run
  // longest list first, so the lists ColumnSums interleaves have similar
  // lengths.
  std::vector<uint32_t> order_;
  std::vector<size_t> offsets_;
  std::vector<uint32_t> positions_;
};

}  // namespace lightmirm::linear
