#include "metrics/ks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "metrics/roc.h"

namespace lightmirm::metrics {
namespace {

TEST(KsTest, PerfectSeparationIsOne) {
  EXPECT_DOUBLE_EQ(*KsStatistic({0, 0, 1, 1}, {0.1, 0.2, 0.8, 0.9}), 1.0);
}

TEST(KsTest, IdenticalDistributionsNearZero) {
  // Same score multiset for both classes.
  EXPECT_DOUBLE_EQ(
      *KsStatistic({0, 1, 0, 1}, {0.3, 0.3, 0.7, 0.7}), 0.0);
}

TEST(KsTest, HandComputed) {
  // neg: {0.1, 0.4}, pos: {0.6, 0.9}.
  // After 0.4: F_neg = 1.0, F_pos = 0.0 -> KS = 1.0.
  EXPECT_DOUBLE_EQ(*KsStatistic({0, 0, 1, 1}, {0.1, 0.4, 0.6, 0.9}), 1.0);
  // Interleaved: neg {0.1, 0.6}, pos {0.4, 0.9}: max gap 0.5.
  EXPECT_DOUBLE_EQ(*KsStatistic({0, 1, 0, 1}, {0.1, 0.4, 0.6, 0.9}), 0.5);
}

TEST(KsTest, BoundedInUnitInterval) {
  Rng rng(9);
  std::vector<int> labels;
  std::vector<double> scores;
  for (int i = 0; i < 500; ++i) {
    labels.push_back(rng.Bernoulli(0.2) ? 1 : 0);
    scores.push_back(rng.Normal());
  }
  const double ks = *KsStatistic(labels, scores);
  EXPECT_GE(ks, 0.0);
  EXPECT_LE(ks, 1.0);
}

TEST(KsTest, InvariantUnderMonotoneTransform) {
  Rng rng(11);
  std::vector<int> labels;
  std::vector<double> scores, transformed;
  for (int i = 0; i < 400; ++i) {
    labels.push_back(rng.Bernoulli(0.3) ? 1 : 0);
    const double s = rng.Normal() + labels.back();
    scores.push_back(s);
    transformed.push_back(std::tanh(s) * 10.0);
  }
  EXPECT_NEAR(*KsStatistic(labels, scores),
              *KsStatistic(labels, transformed), 1e-12);
}

TEST(KsTest, InvariantUnderScoreInversion) {
  // KS measures CDF distance, so flipping the score sign keeps it.
  const std::vector<int> labels = {0, 1, 0, 1, 0, 1};
  const std::vector<double> scores = {0.1, 0.9, 0.3, 0.7, 0.2, 0.5};
  std::vector<double> flipped;
  for (double s : scores) flipped.push_back(-s);
  EXPECT_NEAR(*KsStatistic(labels, scores), *KsStatistic(labels, flipped),
              1e-12);
}

TEST(KsTest, ErrorsOnDegenerateInputs) {
  EXPECT_FALSE(KsStatistic({1, 1}, {0.1, 0.2}).ok());
  EXPECT_FALSE(KsStatistic({0, 1}, {0.1}).ok());
  EXPECT_FALSE(KsStatistic({0, 3}, {0.1, 0.2}).ok());
}

TEST(KsCurveTest, PeakMatchesStatistic) {
  Rng rng(13);
  std::vector<int> labels;
  std::vector<double> scores;
  for (int i = 0; i < 300; ++i) {
    labels.push_back(rng.Bernoulli(0.4) ? 1 : 0);
    scores.push_back(rng.Normal() + 0.8 * labels.back());
  }
  const auto curve = *KsCurve(labels, scores);
  double peak = 0.0;
  for (const KsPoint& p : curve) peak = std::max(peak, p.gap);
  EXPECT_NEAR(peak, *KsStatistic(labels, scores), 1e-12);
}

// The index-sort KS the pair sort replaced: a permutation sorted through
// an indirect comparator, then the same walk over runs of equal scores.
double IndexSortKs(const std::vector<int>& labels,
                   const std::vector<double>& scores) {
  double num_pos = 0.0, num_neg = 0.0;
  for (int y : labels) (y == 1 ? num_pos : num_neg) += 1.0;
  const size_t n = labels.size();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return scores[a] < scores[b]; });
  double cum_pos = 0.0, cum_neg = 0.0, best = 0.0;
  size_t i = 0;
  while (i < n) {
    const double s = scores[order[i]];
    while (i < n && scores[order[i]] == s) {
      (labels[order[i]] == 1 ? cum_pos : cum_neg) += 1.0;
      ++i;
    }
    best = std::max(best, std::abs(cum_neg / num_neg - cum_pos / num_pos));
  }
  return best;
}

TEST(KsTest, PairSortEqualsIndexSortWithTiesAndSignedZeros) {
  Rng rng(29);
  // Eleven score values, -0.0 and +0.0 among them, so almost every score
  // is tied and the zero run mixes both signs.
  const std::vector<double> values = {-0.3, -0.1, -0.0, 0.0, 0.0,  0.1,
                                      0.2,  0.2,  0.5,  0.7, 1e-300};
  for (const size_t n : {2u, 17u, 500u, 4800u}) {
    std::vector<int> labels(n);
    std::vector<double> scores(n);
    for (size_t i = 0; i < n; ++i) {
      labels[i] = i < 2 ? static_cast<int>(i) : (rng.Bernoulli(0.3) ? 1 : 0);
      scores[i] = values[rng.UniformInt(values.size())];
    }
    const double want = IndexSortKs(labels, scores);
    const double got = *KsStatistic(labels, scores);
    uint64_t want_bits, got_bits;
    std::memcpy(&want_bits, &want, sizeof(want));
    std::memcpy(&got_bits, &got, sizeof(got));
    EXPECT_EQ(got_bits, want_bits) << n << " rows";
    // One curve point per distinct score: ±0 and the repeats merge.
    const auto curve = *KsCurve(labels, scores);
    EXPECT_LE(curve.size(), 8u);
    for (size_t k = 1; k < curve.size(); ++k) {
      EXPECT_LT(curve[k - 1].threshold, curve[k].threshold);
    }
  }
}

// The pool's shard sort against one serial sort, at 1, 2 and 4 threads:
// n below, at and above one shard (and several), with ties and signed
// zeros that land in different shards.
TEST(KsShardTest, ShardedSortGivesTheSerialSortStatistic) {
  Rng rng(31);
  const std::vector<double> values = {-0.0, 0.0, 0.25, 0.25, 0.5, 0.75};
  const size_t shard = kKsSortShard;
  for (const size_t n : {shard - 1, shard, shard + 1, 2 * shard + 7,
                         5 * shard - 3}) {
    for (bool tied : {false, true}) {
      std::vector<int> labels(n);
      std::vector<double> scores(n);
      for (size_t i = 0; i < n; ++i) {
        labels[i] = i < 2 ? static_cast<int>(i) : (rng.Bernoulli(0.3) ? 1 : 0);
        scores[i] = tied ? values[rng.UniformInt(values.size())]
                         : rng.Normal() + 0.8 * labels[i];
      }
      // Put -0.0 in the first shard and +0.0 in the last, beside ties.
      scores[0] = -0.0;
      scores[n - 1] = 0.0;
      const double want = IndexSortKs(labels, scores);
      for (int threads : {1, 2, 4}) {
        ScopedDefaultThreads scoped(threads);
        const double got = *KsStatistic(labels, scores);
        uint64_t want_bits, got_bits;
        std::memcpy(&want_bits, &want, sizeof(want));
        std::memcpy(&got_bits, &got, sizeof(got));
        EXPECT_EQ(got_bits, want_bits)
            << n << " rows, tied=" << tied << ", " << threads << " threads";
        const auto curve = *KsCurve(labels, scores);
        for (size_t k = 1; k < curve.size(); ++k) {
          ASSERT_LT(curve[k - 1].threshold, curve[k].threshold);
        }
      }
    }
  }
}

// Property: stronger class separation yields larger KS, and KS relates
// sensibly to AUC (KS high -> AUC far from 0.5).
class KsSeparationTest : public ::testing::TestWithParam<double> {};

TEST_P(KsSeparationTest, MonotoneInSeparation) {
  const double shift = GetParam();
  Rng rng(17);
  std::vector<int> labels;
  std::vector<double> weak, strong;
  for (int i = 0; i < 3000; ++i) {
    labels.push_back(rng.Bernoulli(0.5) ? 1 : 0);
    const double base = rng.Normal();
    weak.push_back(base + shift * labels.back());
    strong.push_back(base + (shift + 0.5) * labels.back());
  }
  EXPECT_LT(*KsStatistic(labels, weak), *KsStatistic(labels, strong));
  EXPECT_LT(*Auc(labels, weak), *Auc(labels, strong));
}

INSTANTIATE_TEST_SUITE_P(Shifts, KsSeparationTest,
                         ::testing::Values(0.2, 0.5, 1.0, 1.5));

}  // namespace
}  // namespace lightmirm::metrics
