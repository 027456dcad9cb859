#include "metrics/ks.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "common/thread_pool.h"

namespace lightmirm::metrics {
namespace {

Status CheckInputs(const std::vector<int>& labels,
                   const std::vector<double>& scores, double* num_pos,
                   double* num_neg) {
  if (labels.size() != scores.size()) {
    return Status::InvalidArgument(
        StrFormat("labels (%zu) and scores (%zu) differ in length",
                  labels.size(), scores.size()));
  }
  *num_pos = 0.0;
  *num_neg = 0.0;
  for (int y : labels) {
    if (y == 1) {
      *num_pos += 1.0;
    } else if (y == 0) {
      *num_neg += 1.0;
    } else {
      return Status::InvalidArgument("labels must be 0/1");
    }
  }
  if (*num_pos == 0.0 || *num_neg == 0.0) {
    return Status::FailedPrecondition("need both classes present for KS");
  }
  return Status::OK();
}

using ScorePair = std::pair<double, int>;

bool ScoreLess(const ScorePair& a, const ScorePair& b) {
  return a.first < b.first;
}

// The (score, label) pairs sorted by score, on the pool: every shard of
// kKsSortShard pairs is filled and sorted on its own, then neighbouring runs
// merge pairwise, the run width doubling each pass, until one run is
// left. The shards depend only on n, so the order is the same at any
// thread count. Sorting the pairs themselves rather than an index
// permutation keeps the compares in one contiguous array.
std::vector<ScorePair> SortedPairs(const std::vector<int>& labels,
                                   const std::vector<double>& scores) {
  const size_t n = labels.size();
  std::vector<ScorePair> pairs(n);
  ParallelForShards(0, n, kKsSortShard, [&](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) pairs[i] = {scores[i], labels[i]};
    std::sort(pairs.begin() + begin, pairs.begin() + end, ScoreLess);
  });
  std::vector<ScorePair> merged(n > kKsSortShard ? n : 0);
  for (size_t width = kKsSortShard; width < n; width *= 2) {
    ParallelForShards(0, n, 2 * width, [&](size_t, size_t begin, size_t end) {
      const auto first = pairs.begin() + begin;
      const auto mid = pairs.begin() + std::min(begin + width, end);
      std::merge(first, mid, mid, pairs.begin() + end, merged.begin() + begin,
                 ScoreLess);
    });
    pairs.swap(merged);
  }
  return pairs;
}

// Calls visit(score, gap) once per distinct score, ascending, after
// counting all of that score's rows. The order within a run of equal
// scores (-0.0 and +0.0 included) cannot move a gap, since the whole run
// is counted first: the gaps depend only on the multiset of pairs. A run's
// score is its first pair's, which for a run of signed zeros is whichever
// zero the merge put first.
template <typename Visit>
void WalkScoreGroups(const std::vector<int>& labels,
                     const std::vector<double>& scores, double num_pos,
                     double num_neg, Visit&& visit) {
  const size_t n = labels.size();
  const std::vector<ScorePair> pairs = SortedPairs(labels, scores);
  double cum_pos = 0.0, cum_neg = 0.0;
  size_t i = 0;
  while (i < n) {
    const double s = pairs[i].first;
    while (i < n && pairs[i].first == s) {
      if (pairs[i].second == 1) {
        cum_pos += 1.0;
      } else {
        cum_neg += 1.0;
      }
      ++i;
    }
    visit(s, std::abs(cum_neg / num_neg - cum_pos / num_pos));
  }
}

}  // namespace

Result<double> KsStatistic(const std::vector<int>& labels,
                           const std::vector<double>& scores) {
  double num_pos, num_neg;
  LIGHTMIRM_RETURN_NOT_OK(CheckInputs(labels, scores, &num_pos, &num_neg));
  double best = 0.0;
  WalkScoreGroups(labels, scores, num_pos, num_neg,
                  [&](double, double gap) { best = std::max(best, gap); });
  return best;
}

Result<std::vector<KsPoint>> KsCurve(const std::vector<int>& labels,
                                     const std::vector<double>& scores) {
  double num_pos, num_neg;
  LIGHTMIRM_RETURN_NOT_OK(CheckInputs(labels, scores, &num_pos, &num_neg));
  std::vector<KsPoint> curve;
  WalkScoreGroups(labels, scores, num_pos, num_neg,
                  [&](double threshold, double gap) {
                    curve.push_back(KsPoint{threshold, gap});
                  });
  return curve;
}

}  // namespace lightmirm::metrics
