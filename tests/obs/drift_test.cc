#include "obs/drift.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace lightmirm::obs {
namespace {

TEST(ScoreBinTest, EqualWidthBinsWithClamping) {
  EXPECT_EQ(ScoreBin(0.0, 10), 0);
  EXPECT_EQ(ScoreBin(0.05, 10), 0);
  EXPECT_EQ(ScoreBin(0.1, 10), 1);
  EXPECT_EQ(ScoreBin(0.55, 10), 5);
  EXPECT_EQ(ScoreBin(0.999, 10), 9);
  EXPECT_EQ(ScoreBin(1.0, 10), 9);   // right edge clamps into the last bin
  EXPECT_EQ(ScoreBin(-0.5, 10), 0);  // out-of-range clamps
  EXPECT_EQ(ScoreBin(1.5, 10), 9);
}

TEST(BinnedScoresTest, DerivedQuantities) {
  BinnedScores bins;
  bins.counts = {10, 30};
  bins.positives = {1, 9};
  EXPECT_EQ(bins.Total(), 40u);
  EXPECT_EQ(bins.TotalPositives(), 10u);
  EXPECT_DOUBLE_EQ(bins.DefaultRate(), 0.25);
  EXPECT_EQ(bins.Negatives(), (std::vector<uint64_t>{9, 21}));
  EXPECT_DOUBLE_EQ(BinnedScores{}.DefaultRate(), 0.0);
}

TEST(SlidingWindowTest, TracksBinnedAggregates) {
  SlidingWindow window(/*num_bins=*/10, /*capacity=*/8);
  window.Add(0.05, 1);
  window.Add(0.15, 0);
  window.Add(0.25, -1);  // unlabeled: distribution only
  EXPECT_EQ(window.size(), 3u);
  EXPECT_EQ(window.total_seen(), 3u);
  EXPECT_EQ(window.bin_counts()[0], 1u);
  EXPECT_EQ(window.bin_counts()[1], 1u);
  EXPECT_EQ(window.bin_counts()[2], 1u);
  EXPECT_EQ(window.labeled_total(), 2u);
  EXPECT_EQ(window.positive_total(), 1u);
  EXPECT_EQ(window.labeled_counts()[2], 0u);  // unlabeled row not counted
  // Scores are quantized to 16 bits inside the window (<= 8e-6 error).
  EXPECT_NEAR(window.labeled_score_sums()[0], 0.05, 1e-4);
  EXPECT_NEAR(window.labeled_score_sums()[1], 0.15, 1e-4);
  EXPECT_DOUBLE_EQ(window.labeled_score_sums()[2], 0.0);
}

TEST(SlidingWindowTest, EvictionKeepsOnlyTheLastCapacityRows) {
  SlidingWindow window(/*num_bins=*/10, /*capacity=*/2);
  window.Add(0.05, 1);
  window.Add(0.15, 1);
  window.Add(0.95, 0);  // evicts 0.05
  EXPECT_EQ(window.size(), 2u);
  EXPECT_EQ(window.total_seen(), 3u);
  EXPECT_EQ(window.bin_counts()[0], 0u);
  EXPECT_EQ(window.bin_counts()[1], 1u);
  EXPECT_EQ(window.bin_counts()[9], 1u);
  EXPECT_EQ(window.labeled_total(), 2u);
  EXPECT_EQ(window.positive_total(), 1u);
}

// A window fed N rows must hold exactly the same aggregates as a fresh
// window fed only the last `capacity` of them — the invariant that makes
// monitor snapshots independent of batch sizes.
TEST(SlidingWindowTest, AggregatesMatchFreshWindowOverTail) {
  const size_t capacity = 16;
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 100; ++i) {
    scores.push_back((i % 23) / 23.0);
    labels.push_back(i % 3 == 0 ? 1 : (i % 3 == 1 ? 0 : -1));
  }
  SlidingWindow rolling(10, capacity);
  for (size_t i = 0; i < scores.size(); ++i) rolling.Add(scores[i], labels[i]);
  SlidingWindow fresh(10, capacity);
  for (size_t i = scores.size() - capacity; i < scores.size(); ++i) {
    fresh.Add(scores[i], labels[i]);
  }
  EXPECT_EQ(rolling.size(), fresh.size());
  EXPECT_EQ(rolling.bin_counts(), fresh.bin_counts());
  EXPECT_EQ(rolling.labeled_counts(), fresh.labeled_counts());
  EXPECT_EQ(rolling.labeled_positives(), fresh.labeled_positives());
  EXPECT_EQ(rolling.labeled_total(), fresh.labeled_total());
  EXPECT_EQ(rolling.positive_total(), fresh.positive_total());
  for (size_t b = 0; b < 10; ++b) {
    EXPECT_NEAR(rolling.labeled_score_sums()[b],
                fresh.labeled_score_sums()[b], 1e-9);
  }
}

TEST(BuildScoreReferenceTest, FiltersSmallEnvironmentsAndKeepsNames) {
  std::vector<double> scores;
  std::vector<int> labels;
  std::vector<int> envs;
  for (int i = 0; i < 60; ++i) {  // env 0: 60 rows
    scores.push_back(0.25);
    labels.push_back(i % 4 == 0);
    envs.push_back(0);
  }
  for (int i = 0; i < 10; ++i) {  // env 1: only 10 rows
    scores.push_back(0.75);
    labels.push_back(1);
    envs.push_back(1);
  }
  auto ref = BuildScoreReference(scores, labels, envs, /*num_bins=*/4,
                                 /*min_env_rows=*/50, {"Hubei", "Tibet"});
  ASSERT_TRUE(ref.ok());
  EXPECT_FALSE(ref->empty());
  EXPECT_EQ(ref->global.Total(), 70u);
  ASSERT_EQ(ref->per_env.count(0), 1u);
  EXPECT_EQ(ref->per_env.count(1), 0u);  // under min_env_rows
  EXPECT_EQ(ref->per_env.at(0).Total(), 60u);
  EXPECT_EQ(ref->per_env.at(0).counts[1], 60u);
  EXPECT_EQ(ref->per_env.at(0).positives[1], 15u);
  EXPECT_EQ(ref->EnvName(0), "Hubei");
  EXPECT_EQ(ref->EnvName(7), "env7");
}

TEST(BuildScoreReferenceTest, RejectsBadInputs) {
  EXPECT_FALSE(BuildScoreReference({}, {}, {}).ok());
  EXPECT_FALSE(BuildScoreReference({0.5}, {1, 0}, {}).ok());
  EXPECT_FALSE(BuildScoreReference({0.5}, {2}, {}).ok());
  EXPECT_FALSE(BuildScoreReference({0.5}, {1}, {0, 1}).ok());
  EXPECT_FALSE(BuildScoreReference({0.5}, {1}, {}, /*num_bins=*/1).ok());
}

TEST(ScoreReferenceTest, RoundTripsThroughTextIncludingSpacedNames) {
  auto built = BuildScoreReference(
      {0.1, 0.3, 0.3, 0.9, 0.9, 0.9}, {0, 0, 1, 1, 1, 0}, {0, 0, 0, 1, 1, 1},
      /*num_bins=*/5, /*min_env_rows=*/2, {"Inner Mongolia", "Hubei"});
  ASSERT_TRUE(built.ok());
  std::ostringstream out;
  ASSERT_TRUE(built->WriteTo(&out).ok());
  std::istringstream in(out.str());
  auto parsed = ScoreReference::Parse(&in);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_bins, built->num_bins);
  EXPECT_EQ(parsed->global.counts, built->global.counts);
  EXPECT_EQ(parsed->global.positives, built->global.positives);
  ASSERT_EQ(parsed->per_env.size(), built->per_env.size());
  for (const auto& [env, bins] : built->per_env) {
    ASSERT_EQ(parsed->per_env.count(env), 1u);
    EXPECT_EQ(parsed->per_env.at(env).counts, bins.counts);
    EXPECT_EQ(parsed->per_env.at(env).positives, bins.positives);
  }
  EXPECT_EQ(parsed->env_names,
            (std::vector<std::string>{"Inner Mongolia", "Hubei"}));
}

TEST(ScoreReferenceTest, ParseAtEndOfStreamReturnsEmptyReference) {
  std::istringstream in("");
  auto parsed = ScoreReference::Parse(&in);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

TEST(ScoreReferenceTest, EmptyReferenceRoundTrips) {
  ScoreReference empty;
  std::ostringstream out;
  ASSERT_TRUE(empty.WriteTo(&out).ok());
  std::istringstream in(out.str());
  auto parsed = ScoreReference::Parse(&in);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

TEST(ScoreReferenceTest, ParseRejectsMalformedSections) {
  {
    std::istringstream in("not_a_reference 10 0 0\n");
    EXPECT_FALSE(ScoreReference::Parse(&in).ok());
  }
  {
    std::istringstream in("score_reference 4 1 0\nglobal 1 2 3\n");
    EXPECT_FALSE(ScoreReference::Parse(&in).ok());  // truncated bins
  }
  {
    // positives > counts in a bin.
    std::istringstream in("score_reference 2 0 0\nglobal 1 1 5 0\n");
    EXPECT_FALSE(ScoreReference::Parse(&in).ok());
  }
}

TEST(ScoreReferenceTest, HostileNameCountReturnsStatus) {
  // 10^18 names promised, none present. Reserving the count throws
  // std::length_error instead.
  std::istringstream in(
      "score_reference 2 0 1000000000000000000\nglobal 1 0 1 0\n");
  const auto parsed = ScoreReference::Parse(&in);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace lightmirm::obs
