#include "gbdt/tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "common/string_util.h"
#include "common/thread_pool.h"

namespace lightmirm::gbdt {

float QuantizeThreshold(double threshold) {
  if (std::isnan(threshold)) {
    return std::numeric_limits<float>::quiet_NaN();
  }
  // Round to nearest, then step down while the float image still sits
  // strictly above the double threshold (one step suffices: nearest is at
  // most half a float ULP away).
  float f = static_cast<float>(threshold);
  if (static_cast<double>(f) > threshold) {
    f = std::nextafterf(f, -std::numeric_limits<float>::infinity());
  }
  return f;
}

Tree::Tree(std::vector<TreeNode> nodes) : nodes_(std::move(nodes)) {
  for (const TreeNode& n : nodes_) {
    if (n.is_leaf) {
      ++num_leaves_;
    } else {
      max_feature_index_ = std::max(max_feature_index_, n.feature);
    }
  }
}

double Tree::Predict(const double* row) const {
  if (nodes_.empty()) return 0.0;
  int idx = 0;
  while (!nodes_[idx].is_leaf) {
    const TreeNode& n = nodes_[idx];
    idx = row[n.feature] <= n.threshold ? n.left : n.right;
  }
  return nodes_[idx].leaf_value;
}

int Tree::PredictLeaf(const double* row) const {
  if (nodes_.empty()) return 0;
  int idx = 0;
  while (!nodes_[idx].is_leaf) {
    const TreeNode& n = nodes_[idx];
    idx = row[n.feature] <= n.threshold ? n.left : n.right;
  }
  return nodes_[idx].leaf_ordinal;
}

Result<int> ValidateTree(const Tree& tree, size_t index) {
  const std::vector<TreeNode>& nodes = tree.nodes();
  if (nodes.empty()) {
    return Status::InvalidArgument(StrFormat("tree %zu has no nodes", index));
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    const TreeNode& n = nodes[i];
    if (n.is_leaf) {
      if (n.leaf_ordinal < 0 || n.leaf_ordinal >= tree.num_leaves()) {
        return Status::InvalidArgument(
            StrFormat("tree %zu node %zu: leaf ordinal %d out of range "
                      "(%d leaves)",
                      index, i, n.leaf_ordinal, tree.num_leaves()));
      }
    } else {
      if (n.feature < 0) {
        return Status::InvalidArgument(
            StrFormat("tree %zu node %zu: negative split feature", index, i));
      }
      if (n.left < 0 || n.right < 0 ||
          static_cast<size_t>(n.left) >= nodes.size() ||
          static_cast<size_t>(n.right) >= nodes.size()) {
        return Status::InvalidArgument(
            StrFormat("tree %zu node %zu: child out of range", index, i));
      }
    }
  }
  int depth = 0;
  std::vector<char> seen(nodes.size(), 0);
  std::vector<std::pair<int, int>> stack = {{0, 0}};
  while (!stack.empty()) {
    const auto [i, d] = stack.back();
    stack.pop_back();
    if (seen[static_cast<size_t>(i)]) {
      return Status::InvalidArgument(
          StrFormat("tree %zu is not a tree: node %d reachable twice", index,
                    i));
    }
    seen[static_cast<size_t>(i)] = 1;
    const TreeNode& n = nodes[static_cast<size_t>(i)];
    if (n.is_leaf) {
      depth = std::max(depth, d);
    } else {
      stack.emplace_back(n.left, d + 1);
      stack.emplace_back(n.right, d + 1);
    }
  }
  return depth;
}

namespace {

// Bookkeeping for one open (not yet split or finalized) leaf.
struct OpenLeaf {
  int node = -1;
  std::vector<size_t> rows;
  double grad_sum = 0.0;
  double hess_sum = 0.0;
  std::unique_ptr<NodeHistogram> hist;
  SplitInfo best;
};

}  // namespace

Result<Tree> GrowTree(const BinnedMatrix& binned,
                      const std::vector<size_t>& rows,
                      const std::vector<double>& grads,
                      const std::vector<double>& hessians,
                      const TreeLearnerOptions& options, Rng* rng,
                      HistogramFreeList* free_list,
                      std::vector<std::vector<size_t>>* leaf_rows) {
  if (options.max_leaves < 2) {
    return Status::InvalidArgument("max_leaves must be >= 2");
  }
  if (rows.empty()) {
    return Status::InvalidArgument("cannot grow a tree on zero rows");
  }
  const size_t num_features = binned.num_features();
  const int max_bins = binned.MaxBinCount();
  std::vector<int> feature_num_bins(num_features);
  for (size_t f = 0; f < num_features; ++f) {
    feature_num_bins[f] = binned.mapper(f).num_bins();
  }

  SplitOptions split_options = options.split;
  if (options.feature_fraction < 1.0) {
    split_options.feature_mask.assign(num_features, 0);
    const size_t keep = std::max<size_t>(
        1, static_cast<size_t>(options.feature_fraction *
                               static_cast<double>(num_features)));
    std::vector<size_t> order(num_features);
    for (size_t f = 0; f < num_features; ++f) order[f] = f;
    rng->Shuffle(&order);
    for (size_t i = 0; i < keep; ++i) split_options.feature_mask[order[i]] = 1;
  }

  HistogramFreeList local_list;
  if (free_list == nullptr) free_list = &local_list;

  // Buffers the per-split passes reuse, scoped to this call.
  const size_t num_blocks = binned.num_blocks();
  std::vector<GradHess> gh;
  std::vector<SplitInfo> left_candidates(num_features),
      right_candidates(num_features);

  std::vector<TreeNode> nodes(1);  // root, provisionally a leaf
  std::vector<OpenLeaf> open;

  {
    OpenLeaf root;
    root.node = 0;
    root.rows = rows;
    for (size_t r : rows) {
      root.grad_sum += grads[r];
      root.hess_sum += hessians[r];
    }
    root.hist = free_list->Acquire(num_features, max_bins);
    GatherGradHess(root.rows, grads, hessians, &gh);
    const double count = static_cast<double>(root.rows.size());
    std::vector<SplitInfo> candidates(num_features);
    // Build and scan in one pass over the feature blocks.
    ParallelFor(0, num_blocks, 1, [&](size_t block) {
      root.hist->BuildBlock(block, binned, root.rows, gh);
      FindBlockSplits(*root.hist, block, feature_num_bins, root.grad_sum,
                      root.hess_sum, count, split_options, &candidates);
    });
    root.best = BestSplit(candidates);
    open.push_back(std::move(root));
  }

  int num_leaves = 1;
  while (num_leaves < options.max_leaves) {
    // Pick the open leaf with the best gain.
    int best_idx = -1;
    double best_gain = 0.0;
    for (size_t i = 0; i < open.size(); ++i) {
      if (open[i].best.valid && open[i].best.gain > best_gain) {
        best_gain = open[i].best.gain;
        best_idx = static_cast<int>(i);
      }
    }
    if (best_idx < 0) break;

    OpenLeaf leaf = std::move(open[static_cast<size_t>(best_idx)]);
    open.erase(open.begin() + best_idx);
    const SplitInfo& split = leaf.best;

    // Materialize the split in the node array. The children are appended
    // after the parent is written: emplace_back may reallocate `nodes`, so
    // no reference into the vector survives past it.
    const int left_index = static_cast<int>(nodes.size());
    const int right_index = left_index + 1;
    {
      TreeNode& parent = nodes[static_cast<size_t>(leaf.node)];
      parent.is_leaf = false;
      parent.feature = split.feature;
      parent.threshold =
          binned.mapper(static_cast<size_t>(split.feature))
              .UpperBound(split.bin_threshold);
      parent.left = left_index;
      parent.right = right_index;
    }
    nodes.emplace_back();
    nodes.emplace_back();

    // Partition rows by bin.
    const size_t feature = static_cast<size_t>(split.feature);
    const size_t width = binned.BlockWidth(feature / kFeatureBlock);
    const uint8_t* bins =
        binned.BlockBins(feature / kFeatureBlock) + feature % kFeatureBlock;
    OpenLeaf left, right;
    left.node = left_index;
    right.node = right_index;
    for (size_t r : leaf.rows) {
      if (bins[r * width] <= split.bin_threshold) {
        left.rows.push_back(r);
      } else {
        right.rows.push_back(r);
      }
    }
    left.grad_sum = split.left_grad;
    left.hess_sum = split.left_hess;
    right.grad_sum = split.right_grad;
    right.hess_sum = split.right_hess;

    // Histogram subtraction: build the smaller child, derive the larger in
    // the parent's storage. One pass over the feature blocks builds,
    // subtracts and scans both children, block by block.
    OpenLeaf* small = left.rows.size() <= right.rows.size() ? &left : &right;
    OpenLeaf* large = small == &left ? &right : &left;
    small->hist = free_list->Acquire(num_features, max_bins);
    large->hist = std::move(leaf.hist);
    GatherGradHess(small->rows, grads, hessians, &gh);
    const double left_count = static_cast<double>(left.rows.size());
    const double right_count = static_cast<double>(right.rows.size());
    ParallelFor(0, num_blocks, 1, [&](size_t block) {
      small->hist->BuildBlock(block, binned, small->rows, gh);
      large->hist->SubtractBlock(block, *large->hist, *small->hist);
      FindBlockSplits(*left.hist, block, feature_num_bins, left.grad_sum,
                      left.hess_sum, left_count, split_options,
                      &left_candidates);
      FindBlockSplits(*right.hist, block, feature_num_bins, right.grad_sum,
                      right.hess_sum, right_count, split_options,
                      &right_candidates);
    });
    left.best = BestSplit(left_candidates);
    right.best = BestSplit(right_candidates);
    open.push_back(std::move(left));
    open.push_back(std::move(right));
    ++num_leaves;
  }

  // Finalize remaining open leaves: ordinals in node order for stable
  // encoding, shrunken Newton outputs.
  std::sort(open.begin(), open.end(),
            [](const OpenLeaf& a, const OpenLeaf& b) {
              return a.node < b.node;
            });
  if (leaf_rows != nullptr) leaf_rows->resize(open.size());
  int ordinal = 0;
  for (OpenLeaf& leaf : open) {
    TreeNode& n = nodes[static_cast<size_t>(leaf.node)];
    n.is_leaf = true;
    n.leaf_value =
        options.shrinkage *
        LeafOutput(leaf.grad_sum, leaf.hess_sum, split_options.lambda_l2);
    if (leaf_rows != nullptr) {
      (*leaf_rows)[static_cast<size_t>(ordinal)] = std::move(leaf.rows);
    }
    n.leaf_ordinal = ordinal++;
    free_list->Release(std::move(leaf.hist));
  }
  return Tree(std::move(nodes));
}

}  // namespace lightmirm::gbdt
