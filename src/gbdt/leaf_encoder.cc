#include "gbdt/leaf_encoder.h"

#include "common/string_util.h"
#include "common/thread_pool.h"

namespace lightmirm::gbdt {

LeafEncoder::LeafEncoder(const Booster* booster) : booster_(booster) {
  offsets_.reserve(booster_->trees().size());
  size_t offset = 0;
  for (const Tree& tree : booster_->trees()) {
    offsets_.push_back(offset);
    offset += static_cast<size_t>(tree.num_leaves());
  }
  num_columns_ = offset;
}

Result<linear::FeatureMatrix> LeafEncoder::Encode(const Matrix& raw) const {
  const size_t need = booster_->MinFeatureCount();
  if (raw.cols() < need) {
    return Status::InvalidArgument(
        StrFormat("matrix has %zu columns but the booster reads feature %zu",
                  raw.cols(), need - 1));
  }
  const auto& trees = booster_->trees();
  const size_t num_trees = trees.size();
  // One flat CSR, one entry per (row, tree).
  std::vector<size_t> row_offsets(raw.rows() + 1);
  for (size_t r = 0; r <= raw.rows(); ++r) row_offsets[r] = r * num_trees;
  std::vector<uint32_t> ids(raw.rows() * num_trees);
  // Row-parallel leaf encoding: each row writes only its own slots.
  ParallelFor(0, raw.rows(), 1024, [&](size_t r) {
    const double* raw_row = raw.Row(r);
    uint32_t* row_ids = ids.data() + r * num_trees;
    for (size_t t = 0; t < num_trees; ++t) {
      const int leaf = trees[t].PredictLeaf(raw_row);
      row_ids[t] = static_cast<uint32_t>(ColumnOf(t, leaf));
    }
  });
  return linear::FeatureMatrix::FromSparseBinary(
      num_columns_, std::move(row_offsets), std::move(ids));
}

}  // namespace lightmirm::gbdt
