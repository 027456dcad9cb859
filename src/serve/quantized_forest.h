// QuantizedForest: the trained booster flattened, validated and packed for
// the scoring kernel (serve/scoring_kernel.inc). The one forest form of the
// serving path.
//
//   * Build flattens every tree into structure-of-arrays node storage, in
//     the column layout of gbdt::LeafEncoder, and rejects every tree
//     gbdt::ValidateTree rejects, the check gbdt::LoadBooster also applies
//     to model files. Leaves self-loop and the descent is
//     depth-padded, so it never tests for a leaf; a NaN feature compares
//     false and goes right, exactly like gbdt::Tree::PredictLeaf.
//   * Thresholds are quantized double -> float with gbdt::QuantizeThreshold
//     (largest float <= the training split). The feature plane is rounded
//     with the same function, so exact ties (feature == threshold — common,
//     because bin bounds are observed training values) still go left and
//     every float-representable feature decides exactly like the double
//     descent — see DESIGN.md §11 for the argument.
//   * False-node tables: every split, sorted by (feature, ascending
//     quantized threshold), with the mask of its tree's leaves that the
//     split's FALSE outcome rules out. They are indexed by the features the
//     forest splits on, so their size follows the number of splits, not the
//     largest feature id. The kernel sweeps each such feature once for a
//     whole group of rows instead of descending every tree.
//
// A forest with a tree of more than kLeafBits leaves gets no tables; the
// kernel then takes LeafColumn, the per-tree descent that is also the
// reference the tests compare the kernel against.
#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "gbdt/booster.h"

namespace lightmirm::serve {

/// Immutable float forest built once from a trained booster. Column layout
/// is identical to gbdt::LeafEncoder: tree t's leaves occupy LR columns
/// [offset[t], offset[t] + num_leaves_t), leaf `l` at offset[t] + l.
class QuantizedForest {
 public:
  /// Flattens `booster`. Errors (InvalidArgument) on any tree
  /// gbdt::ValidateTree rejects.
  static Result<QuantizedForest> Build(const gbdt::Booster& booster);

  size_t num_trees() const { return roots_.size(); }
  size_t num_nodes() const { return feature_.size(); }

  /// Total LR columns (sum of leaf counts) — the multi-hot width.
  size_t num_columns() const { return num_columns_; }

  /// Minimum raw-row width any traversal reads: max split feature id + 1.
  size_t min_feature_count() const { return min_feature_count_; }

  /// Global LR column of the leaf `row` (a float feature row with at least
  /// min_feature_count() entries) falls into in tree t: the branch-free
  /// depth-padded descent with the float compare the sweep makes.
  /// Out-of-line on purpose — the kernel's two builds call this one copy.
  uint32_t LeafColumn(size_t t, const float* row) const;

  /// Leaf-mask width of the false-node tables.
  static constexpr size_t kLeafBits = 32;

  /// True when every tree has at most kLeafBits leaves, so the false-node
  /// tables below are populated (see DESIGN.md §11: evaluating the false
  /// split conditions feature by feature and AND-ing per-tree leaf masks
  /// finds the same leaf as the descent).
  bool bitvector_ready() const { return bitvector_ready_; }

  /// Distinct features the forest splits on, ascending: run k holds the
  /// nodes of feature split_features()[k], at
  /// [split_begin()[k], split_begin()[k + 1]) of the sorted tables.
  size_t num_split_features() const { return split_features_.size(); }
  const int32_t* split_features() const { return split_features_.data(); }
  const int32_t* split_begin() const { return split_begin_.data(); }

  /// False-node tables, sorted by (feature, ascending quantized threshold).
  const float* sorted_threshold() const { return qs_threshold_.data(); }
  const int32_t* sorted_tree() const { return qs_tree_.data(); }
  /// AND-mask applied to the node's tree when its condition is false:
  /// all-ones except the bits of the node's left subtree's leaves.
  const uint32_t* sorted_clear_mask() const { return qs_clear_.data(); }
  /// leaf_col_by_bit()[t * kLeafBits + b] = LR column of tree t's b-th
  /// leaf in left-to-right order (the bit numbering of the masks above).
  const uint32_t* leaf_col_by_bit() const { return leaf_col_by_bit_.data(); }

 private:
  friend std::vector<std::vector<float>> ScoringFeatureGrid(
      const QuantizedForest& forest);

  std::vector<int32_t> roots_;     ///< global index of each tree's root
  std::vector<int32_t> depths_;    ///< max root-to-leaf edge count per tree
  std::vector<int32_t> feature_;   ///< split feature; 0 (benign) at a leaf
  std::vector<float> threshold_;   ///< go left iff row[feature] <= threshold
  /// Interleaved children: kids_[2*i] = left, kids_[2*i + 1] = right; a
  /// leaf points at itself from both.
  std::vector<int32_t> kids_;
  std::vector<uint32_t> leaf_col_;  ///< global LR column; valid at leaves
  size_t num_columns_ = 0;
  size_t min_feature_count_ = 0;
  bool bitvector_ready_ = false;
  std::vector<int32_t> split_features_;
  std::vector<int32_t> split_begin_;
  std::vector<float> qs_threshold_;
  std::vector<int32_t> qs_tree_;
  std::vector<uint32_t> qs_clear_;
  std::vector<uint32_t> leaf_col_by_bit_;
};

/// Per-feature threshold grids of a forest: entry f is the sorted-unique
/// list of QuantizeThreshold images of every split threshold on feature f
/// (empty when the forest never splits on f), indexed up to
/// forest.min_feature_count(). Scores depend on a feature value only
/// through `value <= threshold` against these grids (the QuantizeThreshold
/// tie invariant), which is what lets data::ColumnStore's serving-grid
/// encoding replace each value by its grid interval and stay
/// score-bit-identical.
std::vector<std::vector<float>> ScoringFeatureGrid(
    const QuantizedForest& forest);

}  // namespace lightmirm::serve
