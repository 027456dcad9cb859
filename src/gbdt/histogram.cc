#include "gbdt/histogram.h"

#include <algorithm>
#include <cassert>

#include "common/thread_pool.h"

namespace lightmirm::gbdt {
namespace {

// Rows per histogram shard. Each feature sums the node's rows shard by
// shard, each shard into a zeroed partial, and adds the partials in shard
// order. The shards depend only on the row count, never on the thread
// count or on how features are grouped into tasks, so every bin has the
// same float association at any thread count.
constexpr size_t kHistogramRowGrain = 2048;

// Features per task of the feature-parallel Build and SubtractFrom.
constexpr size_t kHistogramFeatureGrain = 8;

struct GradHess {
  double grad;
  double hess;
};

// Adds rows [begin, end) of the node to `acc`, in row order.
void AccumulateShard(const uint16_t* bins, const size_t* rows,
                     const GradHess* gh, size_t begin, size_t end,
                     BinStats* acc) {
  for (size_t i = begin; i < end; ++i) {
    BinStats& s = acc[bins[rows[i]]];
    s.grad += gh[i].grad;
    s.hess += gh[i].hess;
    s.count += 1.0;
  }
}

}  // namespace

NodeHistogram::NodeHistogram(size_t num_features, int max_bins)
    : num_features_(num_features),
      max_bins_(max_bins),
      stats_(num_features * static_cast<size_t>(max_bins)) {}

void NodeHistogram::Build(const BinnedMatrix& binned,
                          const std::vector<size_t>& rows,
                          const std::vector<double>& grads,
                          const std::vector<double>& hessians) {
  const size_t n = rows.size();
  // The node's (grad, hess) pairs in row order, so every feature's pass
  // reads them in sequence.
  std::vector<GradHess> gh(n);
  for (size_t i = 0; i < n; ++i) {
    gh[i] = {grads[rows[i]], hessians[rows[i]]};
  }
  const size_t width = static_cast<size_t>(max_bins_);
  ParallelForShards(
      0, num_features_, kHistogramFeatureGrain,
      [&](size_t, size_t first, size_t last) {
        BinStats* block = stats_.data() + first * width;
        std::fill(block, block + (last - first) * width, BinStats{});
        std::vector<BinStats> partial(n > kHistogramRowGrain ? width : 0);
        // Shard-major, so one shard's rows stay in cache across the block.
        // The first shard sums straight into the zeroed output: a sum
        // started at +0.0 is never -0.0, so adding it to zero would change
        // no bit.
        for (size_t begin = 0; begin < n; begin += kHistogramRowGrain) {
          const size_t end = std::min(n, begin + kHistogramRowGrain);
          for (size_t f = first; f < last; ++f) {
            const uint16_t* bins = binned.FeatureBins(f).data();
            BinStats* out = stats_.data() + f * width;
            if (begin == 0) {
              AccumulateShard(bins, rows.data(), gh.data(), begin, end, out);
              continue;
            }
            std::fill(partial.begin(), partial.end(), BinStats{});
            AccumulateShard(bins, rows.data(), gh.data(), begin, end,
                            partial.data());
            for (size_t b = 0; b < width; ++b) {
              out[b].grad += partial[b].grad;
              out[b].hess += partial[b].hess;
              out[b].count += partial[b].count;
            }
          }
        }
      });
}

void NodeHistogram::SubtractFrom(const NodeHistogram& parent,
                                 const NodeHistogram& other) {
  assert(parent.stats_.size() == stats_.size() &&
         other.stats_.size() == stats_.size());
  const size_t width = static_cast<size_t>(max_bins_);
  ParallelForShards(0, num_features_, kHistogramFeatureGrain,
                    [&](size_t, size_t first, size_t last) {
                      for (size_t i = first * width; i < last * width; ++i) {
                        stats_[i].grad =
                            parent.stats_[i].grad - other.stats_[i].grad;
                        stats_[i].hess =
                            parent.stats_[i].hess - other.stats_[i].hess;
                        stats_[i].count =
                            parent.stats_[i].count - other.stats_[i].count;
                      }
                    });
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

namespace {

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

constexpr size_t kSplitFeatureGrain = 16;

}  // namespace

SplitInfo FindBestSplit(const NodeHistogram& hist,
                        const std::vector<int>& feature_num_bins,
                        double node_grad, double node_hess,
                        double node_count, const SplitOptions& options) {
  const double parent_score =
      NodeScore(node_grad, node_hess, options.lambda_l2);
  // Feature-parallel scan; the strictly-greater reduction in feature order
  // below reproduces the serial "first feature with the maximal gain wins"
  // tie-breaking exactly.
  std::vector<SplitInfo> per_feature(hist.num_features());
  ParallelFor(0, hist.num_features(), kSplitFeatureGrain, [&](size_t f) {
    if (!options.feature_mask.empty() && options.feature_mask[f] == 0) {
      return;
    }
    const int nbins = feature_num_bins[f];
    if (nbins < 2) return;
    per_feature[f] =
        FindBestSplitForFeature(hist, f, nbins, node_grad, node_hess,
                                node_count, options, parent_score);
  });
  SplitInfo best;
  for (const SplitInfo& candidate : per_feature) {
    if (candidate.valid && candidate.gain > best.gain) best = candidate;
  }
  return best;
}

}  // namespace lightmirm::gbdt
