#include "gbdt/histogram.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <type_traits>

#include "common/thread_pool.h"

namespace lightmirm::gbdt {
namespace {

// Rows per histogram shard. Each bin sums the node's rows shard by shard,
// each shard into a zeroed partial, and adds the partials in shard order.
// The shards depend only on the row count, never on the thread count or on
// how features are grouped into tasks, so every bin has the same float
// association at any thread count.
constexpr size_t kHistogramRowGrain = 2048;

// Adds rows [begin, end) of the node to `acc`, the block's histogram (one
// `stride`-bin slot per feature), in row order. `width` is the block's
// feature count: kFeatureBlock as a compile-time constant for full blocks,
// so the feature loop unrolls and a row's bins load as one word, and a
// plain size_t for the last one.
template <typename Width>
void AccumulateShard(const uint8_t* bins, Width width, const size_t* rows,
                     const GradHess* gh, size_t begin, size_t end,
                     size_t stride, BinStats* acc) {
  uint8_t row_bins[kFeatureBlock];
  for (size_t i = begin; i < end; ++i) {
    // Copied out first: the stores below may not alias the bins.
    std::memcpy(row_bins, bins + rows[i] * width, width);
    const GradHess pair = gh[i];
    for (size_t j = 0; j < width; ++j) {
      BinStats& s = acc[j * stride + row_bins[j]];
      s.grad += pair.grad;
      s.hess += pair.hess;
      s.count += 1.0;
    }
  }
}

// Best split of one feature: the scan the serial implementation ran inside
// its feature loop, with an empty running best.
SplitInfo FindBestSplitForFeature(const NodeHistogram& hist, size_t f,
                                  int nbins, double node_grad,
                                  double node_hess, double node_count,
                                  const SplitOptions& options,
                                  double parent_score) {
  SplitInfo best;
  double left_grad = 0.0, left_hess = 0.0, left_count = 0.0;
  // Cut after bin b: left = bins [0..b], right = rest.
  for (int b = 0; b + 1 < nbins; ++b) {
    const BinStats& s = hist.At(f, b);
    left_grad += s.grad;
    left_hess += s.hess;
    left_count += s.count;
    const double right_grad = node_grad - left_grad;
    const double right_hess = node_hess - left_hess;
    const double right_count = node_count - left_count;
    if (left_count < options.min_data_in_leaf ||
        right_count < options.min_data_in_leaf) {
      continue;
    }
    if (left_hess < options.min_child_weight ||
        right_hess < options.min_child_weight) {
      continue;
    }
    const double gain = NodeScore(left_grad, left_hess, options.lambda_l2) +
                        NodeScore(right_grad, right_hess, options.lambda_l2) -
                        parent_score;
    if (gain > options.min_gain && gain > best.gain) {
      best.valid = true;
      best.feature = static_cast<int>(f);
      best.bin_threshold = b;
      best.gain = gain;
      best.left_grad = left_grad;
      best.left_hess = left_hess;
      best.left_count = left_count;
      best.right_grad = right_grad;
      best.right_hess = right_hess;
      best.right_count = right_count;
    }
  }
  return best;
}

}  // namespace

void GatherGradHess(const std::vector<size_t>& rows,
                    const std::vector<double>& grads,
                    const std::vector<double>& hessians,
                    std::vector<GradHess>* out) {
  out->resize(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    (*out)[i] = {grads[rows[i]], hessians[rows[i]]};
  }
}

NodeHistogram::NodeHistogram(size_t num_features, int max_bins)
    : num_features_(num_features),
      max_bins_(max_bins),
      stats_(num_features * static_cast<size_t>(max_bins)) {}

void NodeHistogram::Build(const BinnedMatrix& binned,
                          const std::vector<size_t>& rows,
                          const std::vector<double>& grads,
                          const std::vector<double>& hessians) {
  std::vector<GradHess> gh;
  GatherGradHess(rows, grads, hessians, &gh);
  ParallelFor(0, binned.num_blocks(), 1, [&](size_t block) {
    BuildBlock(block, binned, rows, gh);
  });
}

void NodeHistogram::BuildBlock(size_t block, const BinnedMatrix& binned,
                               const std::vector<size_t>& rows,
                               const std::vector<GradHess>& gh) {
  assert(binned.num_features() == num_features_ && gh.size() == rows.size());
  const size_t width = binned.BlockWidth(block);
  const uint8_t* bins = binned.BlockBins(block);
  const size_t stride = static_cast<size_t>(max_bins_);
  const size_t cells = width * stride;
  BinStats* out = stats_.data() + block * kFeatureBlock * stride;
  std::fill(out, out + cells, BinStats{});
  const size_t n = rows.size();
  std::vector<BinStats> partial(n > kHistogramRowGrain ? cells : 0);
  for (size_t begin = 0; begin < n; begin += kHistogramRowGrain) {
    const size_t end = std::min(n, begin + kHistogramRowGrain);
    // The first shard sums straight into the zeroed output: a sum started
    // at +0.0 is never -0.0, so adding it to zero would change no bit.
    BinStats* acc = begin == 0 ? out : partial.data();
    if (begin != 0) std::fill(partial.begin(), partial.end(), BinStats{});
    if (width == kFeatureBlock) {
      AccumulateShard(bins, std::integral_constant<size_t, kFeatureBlock>{},
                      rows.data(), gh.data(), begin, end, stride, acc);
    } else {
      AccumulateShard(bins, width, rows.data(), gh.data(), begin, end,
                      stride, acc);
    }
    if (begin == 0) continue;
    for (size_t k = 0; k < cells; ++k) {
      out[k].grad += partial[k].grad;
      out[k].hess += partial[k].hess;
      out[k].count += partial[k].count;
    }
  }
}

void NodeHistogram::SubtractFrom(const NodeHistogram& parent,
                                 const NodeHistogram& other) {
  ParallelFor(0, NumFeatureBlocks(num_features_), 1, [&](size_t block) {
    SubtractBlock(block, parent, other);
  });
}

void NodeHistogram::SubtractBlock(size_t block, const NodeHistogram& parent,
                                  const NodeHistogram& other) {
  assert(parent.stats_.size() == stats_.size() &&
         other.stats_.size() == stats_.size());
  const size_t stride = static_cast<size_t>(max_bins_);
  const size_t first = block * kFeatureBlock;
  const size_t last = std::min(num_features_, first + kFeatureBlock);
  for (size_t i = first * stride; i < last * stride; ++i) {
    stats_[i].grad = parent.stats_[i].grad - other.stats_[i].grad;
    stats_[i].hess = parent.stats_[i].hess - other.stats_[i].hess;
    stats_[i].count = parent.stats_[i].count - other.stats_[i].count;
  }
}

std::unique_ptr<NodeHistogram> HistogramFreeList::Acquire(size_t num_features,
                                                         int max_bins) {
  if (!free_.empty() && free_.back()->num_features() == num_features &&
      free_.back()->max_bins() == max_bins) {
    std::unique_ptr<NodeHistogram> hist = std::move(free_.back());
    free_.pop_back();
    return hist;
  }
  return std::make_unique<NodeHistogram>(num_features, max_bins);
}

void HistogramFreeList::Release(std::unique_ptr<NodeHistogram> hist) {
  free_.push_back(std::move(hist));
}

double LeafOutput(double grad_sum, double hess_sum, double lambda_l2) {
  return -grad_sum / (hess_sum + lambda_l2);
}

double NodeScore(double grad_sum, double hess_sum, double lambda_l2) {
  return grad_sum * grad_sum / (hess_sum + lambda_l2);
}

SplitInfo FindBestSplit(const NodeHistogram& hist,
                        const std::vector<int>& feature_num_bins,
                        double node_grad, double node_hess,
                        double node_count, const SplitOptions& options) {
  std::vector<SplitInfo> candidates(hist.num_features());
  ParallelFor(0, NumFeatureBlocks(hist.num_features()), 1, [&](size_t block) {
    FindBlockSplits(hist, block, feature_num_bins, node_grad, node_hess,
                    node_count, options, &candidates);
  });
  return BestSplit(candidates);
}

void FindBlockSplits(const NodeHistogram& hist, size_t block,
                     const std::vector<int>& feature_num_bins,
                     double node_grad, double node_hess, double node_count,
                     const SplitOptions& options,
                     std::vector<SplitInfo>* candidates) {
  const double parent_score =
      NodeScore(node_grad, node_hess, options.lambda_l2);
  const size_t first = block * kFeatureBlock;
  const size_t last = std::min(hist.num_features(), first + kFeatureBlock);
  for (size_t f = first; f < last; ++f) {
    SplitInfo& candidate = (*candidates)[f];
    candidate = SplitInfo{};
    if (!options.feature_mask.empty() && options.feature_mask[f] == 0) {
      continue;
    }
    const int nbins = feature_num_bins[f];
    if (nbins < 2) continue;
    candidate = FindBestSplitForFeature(hist, f, nbins, node_grad, node_hess,
                                        node_count, options, parent_score);
  }
}

SplitInfo BestSplit(const std::vector<SplitInfo>& candidates) {
  // Strictly greater, in feature order: the first feature with the
  // maximal gain wins, as in a serial scan over all features.
  SplitInfo best;
  for (const SplitInfo& candidate : candidates) {
    if (candidate.valid && candidate.gain > best.gain) best = candidate;
  }
  return best;
}

}  // namespace lightmirm::gbdt
