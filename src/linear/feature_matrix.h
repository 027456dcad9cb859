// FeatureMatrix: the input representation consumed by the logistic
// regression head. Two storage modes:
//   * dense rows (raw numeric features), and
//   * sparse-binary rows (the multi-hot GBDT leaf encoding of §III-C, where
//     each row has exactly one active column per tree).
// Sparse-binary mode makes the LR gradient and Hessian-vector kernels cost
// O(active entries) instead of O(columns).
#pragma once

#include <cstdint>
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

  /// Builds a sparse-binary matrix with `cols` columns; row r has value 1.0
  /// at every index in `row_active[r]` and 0 elsewhere. Errors if any index
  /// is out of range.
  static Result<FeatureMatrix> FromSparseBinary(
      size_t cols, std::vector<std::vector<uint32_t>> row_active);

  size_t rows() const {
    return dense_mode_ ? dense_.rows() : sparse_rows_.size();
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

  /// out[j] += a * X[r][j] for all j. `out` must have at least cols()
  /// entries.
  void AddScaledRow(size_t r, double a, std::vector<double>* out) const;

  /// Active column indices of a sparse row (empty span semantics for dense
  /// mode — call only when !dense_mode()).
  const std::vector<uint32_t>& SparseRow(size_t r) const {
    return sparse_rows_[r];
  }

  /// The dense matrix (call only when dense_mode()).
  const Matrix& dense() const { return dense_; }

  /// Mean number of active (nonzero) entries per row.
  double MeanRowNnz() const;

 private:
  bool dense_mode_ = true;
  Matrix dense_;
  size_t cols_ = 0;
  std::vector<std::vector<uint32_t>> sparse_rows_;
};

}  // namespace lightmirm::linear
