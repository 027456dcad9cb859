// CompiledForest: the trained booster flattened and validated for serving.
// The training representation (gbdt::Tree, fat AoS TreeNode structs) is
// optimized for growth; inference only needs the split tuple (feature,
// threshold, left, right) and, at each leaf, the global LR column the
// §III-C multi-hot encoding would activate. Build flattens every tree into
// structure-of-arrays node storage and rejects malformed trees (the guard
// on loaded model files); serve::QuantizedForest re-packs the result for
// the scoring kernel.
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "gbdt/booster.h"

namespace lightmirm::serve {

/// Immutable SoA forest built once from a trained booster. Column layout is
/// identical to gbdt::LeafEncoder: tree t's leaves occupy LR columns
/// [offset[t], offset[t] + num_leaves_t), leaf `l` at offset[t] + l.
class CompiledForest {
 public:
  /// Flattens `booster`. Errors (InvalidArgument) on malformed trees:
  /// empty trees, children or leaf ordinals out of range, negative split
  /// features, or node graphs that are not trees (cycles, shared nodes).
  static Result<CompiledForest> Build(const gbdt::Booster& booster);

  size_t num_trees() const { return roots_.size(); }
  size_t num_nodes() const { return feature_.size(); }

  /// Total LR columns (sum of leaf counts) — the multi-hot width.
  size_t num_columns() const { return num_columns_; }

  /// Minimum raw-row width any traversal reads: max split feature id + 1.
  size_t min_feature_count() const { return min_feature_count_; }

  /// Raw SoA views, read by serve::QuantizedForest::Build and
  /// serve::ScoringFeatureGrid. Children of node i are left()[i] and
  /// right()[i]; leaves self-loop (left == right == i), so a descent padded
  /// to depths()[t] steps stays put once it reaches a leaf.
  const std::vector<int32_t>& roots() const { return roots_; }
  const std::vector<int32_t>& depths() const { return depths_; }
  const std::vector<int32_t>& feature() const { return feature_; }
  const std::vector<double>& threshold() const { return threshold_; }
  const std::vector<int32_t>& left() const { return left_; }
  const std::vector<int32_t>& right() const { return right_; }
  const std::vector<uint32_t>& leaf_col() const { return leaf_col_; }

 private:
  std::vector<int32_t> roots_;     ///< global index of each tree's root
  std::vector<int32_t> depths_;    ///< max root-to-leaf edge count per tree
  std::vector<int32_t> feature_;   ///< split feature; 0 (benign) at a leaf
  std::vector<double> threshold_;  ///< go left iff row[feature] <= threshold
  std::vector<int32_t> left_;      ///< left child; at a leaf: own index
  std::vector<int32_t> right_;     ///< right child; at a leaf: own index
  std::vector<uint32_t> leaf_col_;  ///< global LR column; valid at leaves
  size_t num_columns_ = 0;
  size_t min_feature_count_ = 0;
};

}  // namespace lightmirm::serve
