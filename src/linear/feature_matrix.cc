#include "linear/feature_matrix.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "common/string_util.h"

namespace lightmirm::linear {

FeatureMatrix FeatureMatrix::FromDense(Matrix dense) {
  FeatureMatrix fm;
  fm.dense_mode_ = true;
  fm.dense_ = std::move(dense);
  return fm;
}

Result<FeatureMatrix> FeatureMatrix::FromSparseBinary(
    size_t cols, std::vector<std::vector<uint32_t>> row_active) {
  for (size_t r = 0; r < row_active.size(); ++r) {
    for (uint32_t c : row_active[r]) {
      if (c >= cols) {
        return Status::OutOfRange(
            StrFormat("row %zu: column %u out of range (%zu cols)", r, c,
                      cols));
      }
    }
  }
  FeatureMatrix fm;
  fm.dense_mode_ = false;
  fm.cols_ = cols;
  fm.sparse_rows_ = std::move(row_active);
  return fm;
}

double FeatureMatrix::RowDot(size_t r, const std::vector<double>& w) const {
  assert(w.size() >= cols());
  if (dense_mode_) {
    const double* row = dense_.Row(r);
    double acc = 0.0;
    for (size_t c = 0; c < dense_.cols(); ++c) acc += row[c] * w[c];
    return acc;
  }
  double acc = 0.0;
  for (uint32_t c : sparse_rows_[r]) acc += w[c];
  return acc;
}

void FeatureMatrix::RowDots(const size_t* rows, size_t count,
                            const std::vector<double>& w,
                            double* out) const {
  assert(w.size() >= cols());
  const double* wp = w.data();
  size_t i = 0;
  for (; i + kRowBlock <= count; i += kRowBlock) {
    double acc[kRowBlock] = {};
    if (dense_mode_) {
      const double* row[kRowBlock];
      for (size_t j = 0; j < kRowBlock; ++j) row[j] = dense_.Row(rows[i + j]);
      for (size_t c = 0; c < dense_.cols(); ++c) {
        for (size_t j = 0; j < kRowBlock; ++j) acc[j] += row[j][c] * wp[c];
      }
    } else {
      // Leaf-encoded rows all have one entry per tree; rows of unequal
      // length finish their own tails after the shared prefix.
      const uint32_t* idx[kRowBlock];
      size_t len[kRowBlock];
      size_t shared = SIZE_MAX;
      for (size_t j = 0; j < kRowBlock; ++j) {
        const std::vector<uint32_t>& active = sparse_rows_[rows[i + j]];
        idx[j] = active.data();
        len[j] = active.size();
        shared = std::min(shared, len[j]);
      }
      for (size_t k = 0; k < shared; ++k) {
        for (size_t j = 0; j < kRowBlock; ++j) acc[j] += wp[idx[j][k]];
      }
      for (size_t j = 0; j < kRowBlock; ++j) {
        for (size_t k = shared; k < len[j]; ++k) acc[j] += wp[idx[j][k]];
      }
    }
    for (size_t j = 0; j < kRowBlock; ++j) out[i + j] = acc[j];
  }
  for (; i < count; ++i) out[i] = RowDot(rows[i], w);
}

void FeatureMatrix::AddScaledRow(size_t r, double a,
                                 std::vector<double>* out) const {
  assert(out->size() >= cols());
  if (a == 0.0) return;
  if (dense_mode_) {
    const double* row = dense_.Row(r);
    for (size_t c = 0; c < dense_.cols(); ++c) (*out)[c] += a * row[c];
    return;
  }
  for (uint32_t c : sparse_rows_[r]) (*out)[c] += a;
}

double FeatureMatrix::MeanRowNnz() const {
  if (rows() == 0) return 0.0;
  if (dense_mode_) {
    size_t nnz = 0;
    for (size_t r = 0; r < dense_.rows(); ++r) {
      const double* row = dense_.Row(r);
      for (size_t c = 0; c < dense_.cols(); ++c) {
        if (row[c] != 0.0) ++nnz;
      }
    }
    return static_cast<double>(nnz) / static_cast<double>(dense_.rows());
  }
  size_t nnz = 0;
  for (const auto& row : sparse_rows_) nnz += row.size();
  return static_cast<double>(nnz) / static_cast<double>(sparse_rows_.size());
}

}  // namespace lightmirm::linear
