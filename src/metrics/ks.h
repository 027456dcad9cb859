// Kolmogorov-Smirnov statistic for binary classification scores: the
// maximum gap between the score CDFs of the positive and negative classes.
// The standard risk-ranking metric in credit scoring (the paper reports KS
// throughout).
#pragma once

#include <cstddef>
#include <vector>

#include "common/result.h"

namespace lightmirm::metrics {

/// Pairs per shard of the sort KsStatistic and KsCurve run on the thread
/// pool before their walk; shards then merge pairwise.
inline constexpr size_t kKsSortShard = 1024;

/// KS statistic in [0, 1]. Errors if either class is absent or sizes
/// mismatch. The result depends only on the multiset of (score, label)
/// pairs, so it is the same at any thread count.
Result<double> KsStatistic(const std::vector<int>& labels,
                           const std::vector<double>& scores);

/// KS curve point: at `threshold`, the gap |F_neg - F_pos| of the two CDFs.
struct KsPoint {
  double threshold = 0.0;
  double gap = 0.0;
};

/// Full KS curve over distinct thresholds (ascending).
Result<std::vector<KsPoint>> KsCurve(const std::vector<int>& labels,
                                     const std::vector<double>& scores);

}  // namespace lightmirm::metrics
