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
    size_t cols, std::vector<size_t> row_offsets, std::vector<uint32_t> ids) {
  if (row_offsets.empty() || row_offsets.front() != 0 ||
      row_offsets.back() != ids.size()) {
    return Status::InvalidArgument(
        "row offsets must start at 0 and end at the id count");
  }
  for (size_t r = 0; r + 1 < row_offsets.size(); ++r) {
    if (row_offsets[r + 1] < row_offsets[r]) {
      return Status::InvalidArgument(
          StrFormat("row %zu: offsets decrease", r));
    }
    for (size_t k = row_offsets[r]; k < row_offsets[r + 1]; ++k) {
      if (ids[k] >= cols) {
        return Status::OutOfRange(
            StrFormat("row %zu: column %u out of range (%zu cols)", r, ids[k],
                      cols));
      }
    }
  }
  FeatureMatrix fm;
  fm.dense_mode_ = false;
  fm.cols_ = cols;
  fm.row_offsets_ = std::move(row_offsets);
  fm.ids_ = std::move(ids);
  return fm;
}

Result<FeatureMatrix> FeatureMatrix::FromSparseBinary(
    size_t cols, const std::vector<std::vector<uint32_t>>& row_active) {
  std::vector<size_t> row_offsets;
  row_offsets.reserve(row_active.size() + 1);
  row_offsets.push_back(0);
  std::vector<uint32_t> ids;
  for (const std::vector<uint32_t>& active : row_active) {
    ids.insert(ids.end(), active.begin(), active.end());
    row_offsets.push_back(ids.size());
  }
  return FromSparseBinary(cols, std::move(row_offsets), std::move(ids));
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
  for (size_t k = row_offsets_[r]; k < row_offsets_[r + 1]; ++k) {
    acc += w[ids_[k]];
  }
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
        const size_t r = rows[i + j];
        idx[j] = ids_.data() + row_offsets_[r];
        len[j] = row_offsets_[r + 1] - row_offsets_[r];
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
  return static_cast<double>(ids_.size()) / static_cast<double>(rows());
}

}  // namespace lightmirm::linear
