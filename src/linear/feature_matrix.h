// FeatureMatrix: the input representation consumed by the logistic
// regression head. Two storage modes:
//   * dense rows (raw numeric features), and
//   * sparse-binary rows (the multi-hot GBDT leaf encoding of §III-C, where
//     each row has exactly one active column per tree), kept as one flat
//     CSR: row offsets plus uint32 column ids.
// Sparse-binary mode makes the LR dot products cost O(active entries)
// instead of O(columns); the gradient side sums along a RowSet's column
// index (linear/row_set.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/matrix.h"
#include "common/result.h"

namespace lightmirm::linear {

/// Immutable design matrix with dense or sparse-binary storage.
class FeatureMatrix {
 public:
  FeatureMatrix() = default;

  /// Wraps a dense matrix.
  static FeatureMatrix FromDense(Matrix dense);

  /// Builds a sparse-binary matrix with `cols` columns from CSR arrays:
  /// row r has value 1.0 at every id in
  /// ids[row_offsets[r], row_offsets[r + 1]) and 0 elsewhere. Errors unless
  /// row_offsets starts at 0, never decreases and ends at ids.size(), and
  /// every id is below `cols`.
  static Result<FeatureMatrix> FromSparseBinary(
      size_t cols, std::vector<size_t> row_offsets,
      std::vector<uint32_t> ids);

  /// The same from one id list per row: row r has value 1.0 at every index
  /// in `row_active[r]`.
  static Result<FeatureMatrix> FromSparseBinary(
      size_t cols, const std::vector<std::vector<uint32_t>>& row_active);

  size_t rows() const {
    return dense_mode_ ? dense_.rows() : row_offsets_.size() - 1;
  }
  size_t cols() const { return dense_mode_ ? dense_.cols() : cols_; }
  bool dense_mode() const { return dense_mode_; }

  /// Dot product of row r with the first cols() entries of `w`.
  double RowDot(size_t r, const std::vector<double>& w) const;

  /// Rows whose dot products RowDots computes together.
  static constexpr size_t kRowBlock = 8;

  /// out[i] = RowDot(rows[i], w) for i in [0, count), bit for bit. Each
  /// block of kRowBlock rows runs its dot products interleaved, one
  /// accumulator per row, so their add chains overlap instead of running
  /// one after another; every row still sums its own columns in order
  /// from +0.0.
  void RowDots(const size_t* rows, size_t count, const std::vector<double>& w,
               double* out) const;

  /// Active column indices of a sparse row, in stored order (call only
  /// when !dense_mode()).
  std::span<const uint32_t> SparseRow(size_t r) const {
    return {ids_.data() + row_offsets_[r],
            row_offsets_[r + 1] - row_offsets_[r]};
  }

  /// The dense matrix (call only when dense_mode()).
  const Matrix& dense() const { return dense_; }

  /// Mean number of active (nonzero) entries per row.
  double MeanRowNnz() const;

 private:
  bool dense_mode_ = true;
  Matrix dense_;
  size_t cols_ = 0;
  std::vector<size_t> row_offsets_;
  std::vector<uint32_t> ids_;
};

}  // namespace lightmirm::linear
