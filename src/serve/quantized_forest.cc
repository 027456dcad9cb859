#include "serve/quantized_forest.h"

#include <algorithm>
#include <limits>
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

// In-order DFS over one validated source tree of at most kLeafBits
// reachable leaves (so the recursion is at most kLeafBits - 1 deep):
// assigns leaf bits left-to-right, records each leaf's LR column, and
// emits a FalseNode per split with the left subtree's leaf set. Returns
// the subtree's leaf mask.
struct FalseNodeBuilder {
  const std::vector<gbdt::TreeNode>& nodes;
  uint32_t column_offset;
  int32_t tree;
  uint32_t* cols_by_bit;
  std::vector<FalseNode>* out;
  uint32_t next_bit = 0;

  uint32_t Visit(int node) {
    const gbdt::TreeNode& n = nodes[static_cast<size_t>(node)];
    if (n.is_leaf) {
      cols_by_bit[next_bit] =
          column_offset + static_cast<uint32_t>(n.leaf_ordinal);
      return 1u << next_bit++;
    }
    const uint32_t l = Visit(n.left);
    const uint32_t r = Visit(n.right);
    out->push_back({n.feature, gbdt::QuantizeThreshold(n.threshold), tree,
                    ~l});
    return l | r;
  }
};

}  // namespace

Result<QuantizedForest> QuantizedForest::Build(const gbdt::Booster& booster) {
  const std::vector<gbdt::Tree>& trees = booster.trees();
  size_t total_nodes = 0;
  for (const gbdt::Tree& tree : trees) total_nodes += tree.num_nodes();
  if (total_nodes > static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
    return Status::InvalidArgument("forest too large to compile");
  }

  QuantizedForest q;
  q.roots_.reserve(trees.size());
  q.depths_.reserve(trees.size());
  q.feature_.reserve(total_nodes);
  q.threshold_.reserve(total_nodes);
  q.kids_.reserve(2 * total_nodes);
  q.leaf_col_.reserve(total_nodes);
  // False-node tables: per tree an in-order leaf numbering and per split
  // the mask of leaves its FALSE outcome rules out. Built tree by tree
  // while every tree so far fits the mask width.
  q.bitvector_ready_ = true;
  std::vector<FalseNode> qs;
  q.leaf_col_by_bit_.assign(trees.size() * kLeafBits, 0);

  size_t column_offset = 0;
  for (size_t t = 0; t < trees.size(); ++t) {
    LIGHTMIRM_ASSIGN_OR_RETURN(const int depth,
                               gbdt::ValidateTree(trees[t], t));
    const std::vector<gbdt::TreeNode>& nodes = trees[t].nodes();
    const int32_t base = static_cast<int32_t>(q.feature_.size());
    q.roots_.push_back(base);
    for (size_t i = 0; i < nodes.size(); ++i) {
      const gbdt::TreeNode& n = nodes[i];
      if (n.is_leaf) {
        // Leaves self-loop so the depth-padded descent can keep stepping
        // past them without a leaf test; feature 0 is a benign load (any
        // tree with a split guarantees min_feature_count() >= 1, and a
        // split-free tree has depth 0, so the row is never dereferenced).
        const int32_t self = base + static_cast<int32_t>(i);
        q.feature_.push_back(0);
        q.threshold_.push_back(0.0f);
        q.kids_.push_back(self);
        q.kids_.push_back(self);
        q.leaf_col_.push_back(static_cast<uint32_t>(column_offset) +
                              static_cast<uint32_t>(n.leaf_ordinal));
      } else {
        q.min_feature_count_ = std::max(
            q.min_feature_count_, static_cast<size_t>(n.feature) + 1);
        q.feature_.push_back(n.feature);
        q.threshold_.push_back(gbdt::QuantizeThreshold(n.threshold));
        q.kids_.push_back(base + n.left);
        q.kids_.push_back(base + n.right);
        q.leaf_col_.push_back(0);  // never read at a split
      }
    }
    q.depths_.push_back(depth);
    if (trees[t].num_leaves() > static_cast<int>(kLeafBits)) {
      q.bitvector_ready_ = false;
    }
    if (q.bitvector_ready_) {
      FalseNodeBuilder builder{nodes, static_cast<uint32_t>(column_offset),
                               static_cast<int32_t>(t),
                               q.leaf_col_by_bit_.data() + t * kLeafBits,
                               &qs};
      builder.Visit(0);
    }
    column_offset += static_cast<size_t>(trees[t].num_leaves());
  }
  q.num_columns_ = column_offset;
  if (!q.bitvector_ready_) {
    q.leaf_col_by_bit_.clear();
    return q;
  }

  // Sorted by (feature, ascending threshold) and cut into one run per
  // split feature, so the kernel sweeps each feature's nodes once per row
  // group and never visits a feature no split reads.
  std::stable_sort(qs.begin(), qs.end(),
                   [](const FalseNode& a, const FalseNode& b) {
                     if (a.feature != b.feature) return a.feature < b.feature;
                     return a.threshold < b.threshold;
                   });
  q.qs_threshold_.reserve(qs.size());
  q.qs_tree_.reserve(qs.size());
  q.qs_clear_.reserve(qs.size());
  for (const FalseNode& node : qs) {
    if (q.split_features_.empty() || q.split_features_.back() != node.feature) {
      q.split_features_.push_back(node.feature);
      q.split_begin_.push_back(static_cast<int32_t>(q.qs_threshold_.size()));
    }
    q.qs_threshold_.push_back(node.threshold);
    q.qs_tree_.push_back(node.tree);
    q.qs_clear_.push_back(node.clear);
  }
  q.split_begin_.push_back(static_cast<int32_t>(q.qs_threshold_.size()));
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
    const QuantizedForest& forest) {
  std::vector<std::vector<float>> grids(forest.min_feature_count());
  for (size_t i = 0; i < forest.num_nodes(); ++i) {
    // Leaves self-loop; only real splits contribute a threshold.
    if (forest.kids_[2 * i] == static_cast<int32_t>(i)) continue;
    grids[static_cast<size_t>(forest.feature_[i])].push_back(
        forest.threshold_[i]);
  }
  for (std::vector<float>& grid : grids) {
    std::sort(grid.begin(), grid.end());
    grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
  }
  return grids;
}

}  // namespace lightmirm::serve
