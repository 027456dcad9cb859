// Gradient/hessian histograms and best-split search for one tree node.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gbdt/bin_mapper.h"

namespace lightmirm::gbdt {

/// Accumulated first/second-order statistics of one bin.
struct BinStats {
  double grad = 0.0;
  double hess = 0.0;
  double count = 0.0;
};

/// One row's gradient and hessian, gathered in a node's row order.
struct GradHess {
  double grad;
  double hess;
};

/// out[i] = (grads[rows[i]], hessians[rows[i]]): the pairs Build and
/// BuildBlock read in row order.
void GatherGradHess(const std::vector<size_t>& rows,
                    const std::vector<double>& grads,
                    const std::vector<double>& hessians,
                    std::vector<GradHess>* out);

/// Histogram over all features of one node: feature-major, bin-minor.
/// Features group into the bin store's kFeatureBlock-feature blocks, and
/// each whole-histogram operation is a parallel loop of its block kernel.
class NodeHistogram {
 public:
  NodeHistogram() = default;
  NodeHistogram(size_t num_features, int max_bins);

  /// Replaces the histogram with the sums over `rows`: BuildBlock for every
  /// block, blocks in parallel.
  void Build(const BinnedMatrix& binned, const std::vector<size_t>& rows,
             const std::vector<double>& grads,
             const std::vector<double>& hessians);

  /// Replaces block `block` with the sums over `rows`, whose gathered
  /// (grad, hess) pairs are `gh`. Each bin sums the rows in the given
  /// order, in fixed 2048-row shards, and adds the shard sums in order, so
  /// the result does not depend on which thread runs which block.
  void BuildBlock(size_t block, const BinnedMatrix& binned,
                  const std::vector<size_t>& rows,
                  const std::vector<GradHess>& gh);

  /// this = parent - other (the LightGBM histogram-subtraction trick: the
  /// larger child's histogram is derived from the parent's and the smaller
  /// sibling's). `parent` may be this histogram itself.
  void SubtractFrom(const NodeHistogram& parent, const NodeHistogram& other);

  /// SubtractFrom on block `block` only.
  void SubtractBlock(size_t block, const NodeHistogram& parent,
                     const NodeHistogram& other);

  const BinStats& At(size_t feature, int bin) const {
    return stats_[feature * static_cast<size_t>(max_bins_) +
                  static_cast<size_t>(bin)];
  }

  size_t num_features() const { return num_features_; }
  int max_bins() const { return max_bins_; }

 private:
  size_t num_features_ = 0;
  int max_bins_ = 0;
  std::vector<BinStats> stats_;
};

/// Histograms released by one tree and handed to the next. A boosting run
/// owns one list for all its trees, so each tree reuses the storage the
/// last one touched instead of faulting ~10 MB in again. A reused
/// histogram needs no clearing: Build zeroes each block before filling it
/// and SubtractFrom overwrites every bin.
class HistogramFreeList {
 public:
  /// A histogram of the given shape, recycled when one is free.
  std::unique_ptr<NodeHistogram> Acquire(size_t num_features, int max_bins);

  void Release(std::unique_ptr<NodeHistogram> hist);

 private:
  std::vector<std::unique_ptr<NodeHistogram>> free_;
};

/// A candidate split.
struct SplitInfo {
  bool valid = false;
  int feature = -1;
  int bin_threshold = -1;  ///< go left iff bin <= bin_threshold
  double gain = 0.0;
  double left_grad = 0.0, left_hess = 0.0, left_count = 0.0;
  double right_grad = 0.0, right_hess = 0.0, right_count = 0.0;
};

/// Parameters of the split search.
struct SplitOptions {
  double lambda_l2 = 1.0;
  double min_child_weight = 1e-3;  ///< min hessian sum per child
  double min_data_in_leaf = 20.0;
  double min_gain = 1e-6;
  /// Per-feature enable mask (empty = all enabled); used for feature
  /// subsampling.
  std::vector<uint8_t> feature_mask;
};

/// Leaf objective value -G/(H+lambda) scaled by nothing; helper shared with
/// the tree learner.
double LeafOutput(double grad_sum, double hess_sum, double lambda_l2);

/// Gain of keeping a node whole: G^2 / (H + lambda).
double NodeScore(double grad_sum, double hess_sum, double lambda_l2);

/// Scans all (feature, bin) cut points and returns the best split (valid =
/// false if nothing passes the constraints): FindBlockSplits for every
/// block, blocks in parallel, then BestSplit.
SplitInfo FindBestSplit(const NodeHistogram& hist,
                        const std::vector<int>& feature_num_bins,
                        double node_grad, double node_hess,
                        double node_count, const SplitOptions& options);

/// Sets (*candidates)[f] to the best split on feature f for every feature
/// of block `block`; a feature that is masked out, has fewer than two
/// bins, or has no cut passing the constraints gets an invalid split.
void FindBlockSplits(const NodeHistogram& hist, size_t block,
                     const std::vector<int>& feature_num_bins,
                     double node_grad, double node_hess, double node_count,
                     const SplitOptions& options,
                     std::vector<SplitInfo>* candidates);

/// The first valid candidate, in feature order, with the largest gain.
SplitInfo BestSplit(const std::vector<SplitInfo>& candidates);

}  // namespace lightmirm::gbdt
