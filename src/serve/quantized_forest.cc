#include "serve/quantized_forest.h"

#include <algorithm>
#include <utility>

#include "gbdt/tree.h"

namespace lightmirm::serve {

namespace {

// One false-node record: when `x[feature] <= threshold` is FALSE the
// descent goes right, so the leaves of the node's left subtree become
// unreachable — `clear` ANDs them out of the tree's leaf mask.
struct FalseNode {
  int32_t feature;
  float threshold;
  int32_t tree;
  uint32_t clear;
};

// In-order DFS over one source tree: assigns leaf bits left-to-right,
// records each leaf's LR column, and emits a FalseNode per split with the
// left subtree's leaf set. Returns the subtree's leaf mask; sets
// `overflow` when the tree has more than kLeafBits leaves.
struct FalseNodeBuilder {
  const std::vector<int32_t>& feature;
  const std::vector<double>& threshold;
  const std::vector<int32_t>& left;
  const std::vector<int32_t>& right;
  const std::vector<uint32_t>& leaf_col;
  int32_t tree;
  uint32_t* cols_by_bit;
  std::vector<FalseNode>* out;
  uint32_t next_bit = 0;
  bool overflow = false;

  uint32_t Visit(int32_t node) {
    const size_t i = static_cast<size_t>(node);
    if (left[i] == node) {  // leaf self-loop
      if (next_bit >= QuantizedForest::kLeafBits) {
        overflow = true;
        return 0;
      }
      cols_by_bit[next_bit] = leaf_col[i];
      return 1u << next_bit++;
    }
    const uint32_t l = Visit(left[i]);
    const uint32_t r = Visit(right[i]);
    if (overflow) return 0;
    out->push_back({feature[i], gbdt::QuantizeThreshold(threshold[i]), tree,
                    ~l});
    return l | r;
  }
};

}  // namespace

QuantizedForest QuantizedForest::Build(const CompiledForest& forest) {
  const size_t total_nodes = forest.num_nodes();
  QuantizedForest q;
  q.num_columns_ = forest.num_columns();
  q.min_feature_count_ = forest.min_feature_count();
  q.roots_ = forest.roots();
  q.depths_ = forest.depths();
  q.feature_ = forest.feature();
  q.leaf_col_ = forest.leaf_col();
  q.threshold_.reserve(total_nodes);
  q.kids_.reserve(2 * total_nodes);
  for (size_t i = 0; i < total_nodes; ++i) {
    q.threshold_.push_back(gbdt::QuantizeThreshold(forest.threshold()[i]));
    q.kids_.push_back(forest.left()[i]);
    q.kids_.push_back(forest.right()[i]);
  }

  // False-node ("bitvector") tables: per tree an in-order leaf numbering
  // and per split the mask of leaves its FALSE outcome rules out, sorted
  // by (feature, ascending threshold) so the kernel sweeps each feature's
  // nodes once per row group.
  q.bitvector_ready_ = true;
  std::vector<FalseNode> qs;
  qs.reserve(total_nodes);
  q.leaf_col_by_bit_.assign(forest.num_trees() * kLeafBits, 0);
  const std::vector<int32_t>& src_feature = forest.feature();
  const std::vector<double>& src_threshold = forest.threshold();
  const std::vector<int32_t>& src_left = forest.left();
  const std::vector<int32_t>& src_right = forest.right();
  const std::vector<uint32_t>& src_leaf_col = forest.leaf_col();
  for (size_t t = 0; t < forest.num_trees() && q.bitvector_ready_; ++t) {
    FalseNodeBuilder builder{src_feature,
                             src_threshold,
                             src_left,
                             src_right,
                             src_leaf_col,
                             static_cast<int32_t>(t),
                             q.leaf_col_by_bit_.data() + t * kLeafBits,
                             &qs};
    builder.Visit(forest.roots()[t]);
    if (builder.overflow) q.bitvector_ready_ = false;
  }
  if (q.bitvector_ready_) {
    std::stable_sort(qs.begin(), qs.end(),
                     [](const FalseNode& a, const FalseNode& b) {
                       if (a.feature != b.feature) {
                         return a.feature < b.feature;
                       }
                       return a.threshold < b.threshold;
                     });
    q.qs_begin_.assign(q.min_feature_count_ + 1, 0);
    q.qs_threshold_.reserve(qs.size());
    q.qs_tree_.reserve(qs.size());
    q.qs_clear_.reserve(qs.size());
    for (const FalseNode& node : qs) {
      ++q.qs_begin_[static_cast<size_t>(node.feature) + 1];
      q.qs_threshold_.push_back(node.threshold);
      q.qs_tree_.push_back(node.tree);
      q.qs_clear_.push_back(node.clear);
    }
    for (size_t f = 1; f < q.qs_begin_.size(); ++f) {
      q.qs_begin_[f] += q.qs_begin_[f - 1];
    }
  } else {
    q.leaf_col_by_bit_.clear();
  }
  return q;
}

uint32_t QuantizedForest::LeafColumn(size_t t, const float* row) const {
  int32_t idx = roots_[t];
  for (int32_t d = depths_[t]; d > 0; --d) {
    const size_t i = static_cast<size_t>(idx);
    // `!(x <= thr)` so a NaN feature goes right, matching the training-side
    // descent; indexing the interleaved kids keeps the step branch-free.
    const int32_t take_right =
        static_cast<int32_t>(!(row[feature_[i]] <= threshold_[i]));
    idx = kids_[2 * i + static_cast<size_t>(take_right)];
  }
  return leaf_col_[static_cast<size_t>(idx)];
}

std::vector<std::vector<float>> ScoringFeatureGrid(
    const CompiledForest& forest) {
  std::vector<std::vector<float>> grids(forest.min_feature_count());
  for (size_t i = 0; i < forest.num_nodes(); ++i) {
    // Leaves self-loop (left == right == own index); only real splits
    // contribute a threshold.
    if (forest.left()[i] == static_cast<int32_t>(i)) continue;
    grids[static_cast<size_t>(forest.feature()[i])].push_back(
        gbdt::QuantizeThreshold(forest.threshold()[i]));
  }
  for (std::vector<float>& grid : grids) {
    std::sort(grid.begin(), grid.end());
    grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
  }
  return grids;
}

}  // namespace lightmirm::serve
