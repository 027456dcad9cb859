// Decision tree: structure, raw-value prediction, leaf-index prediction,
// and a leaf-wise (best-first) histogram learner in the LightGBM style.
#pragma once

#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/result.h"
#include "common/rng.h"
#include "gbdt/histogram.h"

namespace lightmirm::gbdt {

/// One node; leaves have is_leaf = true and carry a value and a dense leaf
/// ordinal (used by the leaf encoder of §III-C).
struct TreeNode {
  bool is_leaf = true;
  int feature = -1;
  double threshold = 0.0;  ///< go left iff value <= threshold
  int left = -1;
  int right = -1;
  double leaf_value = 0.0;
  int leaf_ordinal = -1;
};

/// An immutable trained tree.
class Tree {
 public:
  Tree() = default;
  explicit Tree(std::vector<TreeNode> nodes);

  int num_leaves() const { return num_leaves_; }
  size_t num_nodes() const { return nodes_.size(); }
  const std::vector<TreeNode>& nodes() const { return nodes_; }

  /// Largest feature id any split reads; -1 for a leaf-only tree.
  int max_feature_index() const { return max_feature_index_; }

  /// Additive output for a raw feature row (length >= max feature id + 1).
  double Predict(const double* row) const;

  /// Dense leaf ordinal in [0, num_leaves()) that `row` falls into.
  int PredictLeaf(const double* row) const;

 private:
  std::vector<TreeNode> nodes_;
  int num_leaves_ = 0;
  int max_feature_index_ = -1;
};

/// What every loaded tree must be before anything descends it: at least
/// one node; leaf ordinals in [0, num_leaves()); split features
/// non-negative and children in range; no node reachable twice from the
/// root (a cycle, on which Predict never returns, or a shared subtree).
/// Returns the depth (longest root-to-leaf path in edges), or
/// InvalidArgument naming the tree by `index`.
Result<int> ValidateTree(const Tree& tree, size_t index);

/// Largest float f with (double)f <= value: the tie-preserving float image
/// of a double. This is the export hook the quantized serving engine
/// (serve::QuantizedForest) builds on, applied to BOTH sides of every
/// split: for any float x, `x <= QuantizeThreshold(t)` equals
/// `(double)x <= t`, so when the feature plane is rounded with the same
/// function, a feature that exactly equals a training split (bin bounds
/// are observed feature values, so serving ties are common) lands on the
/// quantized threshold and still goes left, and every float-representable
/// feature decides exactly as the double descent would. NaN maps to NaN
/// (goes right on both sides); values beyond float range clamp to
/// ±FLT_MAX / ±inf without changing any preserved comparison.
float QuantizeThreshold(double value);

/// Leaf-wise growth parameters.
struct TreeLearnerOptions {
  int max_leaves = 31;
  SplitOptions split;
  double shrinkage = 0.1;  ///< learning rate applied to leaf outputs
  /// Fraction of features considered per tree (LightGBM feature_fraction);
  /// 1.0 = all.
  double feature_fraction = 1.0;
};

/// Grows one tree on (grads, hessians) over the given rows. Node
/// histograms come from `free_list` and go back to it when the tree is
/// done; with no list, the call uses one of its own. When `leaf_rows` is
/// set, (*leaf_rows)[k] receives the rows of the leaf with ordinal k, in
/// the order of `rows`. These are the rows Tree::PredictLeaf sends there:
/// bin <= b exactly when value <= UpperBound(b), and NaN sits in the last
/// bin, right of every split.
Result<Tree> GrowTree(const BinnedMatrix& binned,
                      const std::vector<size_t>& rows,
                      const std::vector<double>& grads,
                      const std::vector<double>& hessians,
                      const TreeLearnerOptions& options, Rng* rng,
                      HistogramFreeList* free_list = nullptr,
                      std::vector<std::vector<size_t>>* leaf_rows = nullptr);

}  // namespace lightmirm::gbdt
