#include "gbdt/serialize.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.h"
#include "linear/logistic.h"

namespace lightmirm::gbdt {
namespace {

Booster TrainBooster() {
  Rng rng(1);
  const size_t n = 600;
  Matrix features(n, 3);
  std::vector<int> labels(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 3; ++j) features.At(i, j) = rng.Normal();
    labels[i] =
        rng.Bernoulli(linear::Sigmoid(1.5 * features.At(i, 1))) ? 1 : 0;
  }
  BoosterOptions options;
  options.num_trees = 8;
  options.tree.max_leaves = 5;
  return *Booster::Train(features, labels, options);
}

TEST(SerializeTest, RoundTripPreservesPredictions) {
  const Booster original = TrainBooster();
  std::stringstream buffer;
  ASSERT_TRUE(SaveBooster(original, &buffer).ok());
  const Booster loaded = *LoadBooster(&buffer);
  EXPECT_EQ(loaded.trees().size(), original.trees().size());
  EXPECT_DOUBLE_EQ(loaded.base_score(), original.base_score());
  Rng rng(9);
  std::vector<double> row(3);
  for (int trial = 0; trial < 200; ++trial) {
    for (double& v : row) v = rng.Normal(0.0, 2.0);
    EXPECT_DOUBLE_EQ(loaded.PredictLogit(row.data()),
                     original.PredictLogit(row.data()));
    EXPECT_EQ(loaded.trees()[0].PredictLeaf(row.data()),
              original.trees()[0].PredictLeaf(row.data()));
  }
}

TEST(SerializeTest, FileRoundTrip) {
  const std::string path =
      std::string(::testing::TempDir()) + "/booster.txt";
  const Booster original = TrainBooster();
  ASSERT_TRUE(SaveBoosterToFile(original, path).ok());
  const Booster loaded = *LoadBoosterFromFile(path);
  Rng rng(10);
  std::vector<double> row(3);
  for (double& v : row) v = rng.Normal();
  EXPECT_DOUBLE_EQ(loaded.PredictLogit(row.data()),
                   original.PredictLogit(row.data()));
}

TEST(SerializeTest, RejectsBadHeader) {
  std::stringstream buffer("not-a-booster\n");
  EXPECT_FALSE(LoadBooster(&buffer).ok());
}

TEST(SerializeTest, RejectsTruncatedStream) {
  const Booster original = TrainBooster();
  std::stringstream buffer;
  ASSERT_TRUE(SaveBooster(original, &buffer).ok());
  std::string text = buffer.str();
  text.resize(text.size() / 2);
  std::stringstream truncated(text);
  EXPECT_FALSE(LoadBooster(&truncated).ok());
}

TEST(SerializeTest, RejectsChildIndexOutOfRange) {
  std::stringstream buffer(
      "lightmirm-booster-v1\n"
      "base_score 0\n"
      "num_trees 1\n"
      "tree 1\n"
      "split 0 0.5 5 6\n");
  EXPECT_FALSE(LoadBooster(&buffer).ok());
}

TEST(SerializeTest, HostileCountsReturnStatus) {
  // Counts no file of this size could hold; sizing a vector from them
  // threw std::length_error or std::bad_alloc through the Result API.
  for (const char* header :
       {"lightmirm-booster-v1\nbase_score 0\nnum_trees "
        "1000000000000000000\n",
        "lightmirm-booster-v1\nbase_score 0\nnum_trees "
        "100000000000000000\n",
        "lightmirm-booster-v1\nbase_score 0\nnum_trees 1\n"
        "tree 100000000000000000\nleaf 0 0.5\n"}) {
    std::stringstream buffer(header);
    const Result<Booster> loaded = LoadBooster(&buffer);
    ASSERT_FALSE(loaded.ok()) << header;
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError) << header;
  }
}

TEST(SerializeTest, MissingFileIsIoError) {
  auto r = LoadBoosterFromFile("/no/such/booster.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace lightmirm::gbdt
