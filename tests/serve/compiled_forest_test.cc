// CompiledForest: the flattened layout follows gbdt::LeafEncoder, the
// scoring kernel's tree sums over it equal the legacy sparse RowDot in
// both kernel builds, and Build rejects malformed trees.
#include "serve/compiled_forest.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gbdt/leaf_encoder.h"
#include "serve/quantized_forest.h"
#include "serve/simd_kernel.h"

namespace lightmirm::serve {
namespace {

// The scalar build, plus the AVX2 build when the CPU runs it.
std::vector<SimdLevel> KernelLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (DetectedSimdLevel() == SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

gbdt::Booster TrainSmallBooster(Matrix* raw_out) {
  Rng rng(33);
  const size_t rows = 1200, cols = 5;
  Matrix raw(rows, cols);
  std::vector<int> labels(rows);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) raw.At(r, c) = rng.Normal();
    labels[r] = rng.Bernoulli(0.3 + 0.4 * (raw.At(r, 0) > 0.0)) ? 1 : 0;
  }
  gbdt::BoosterOptions options;
  options.num_trees = 10;
  options.tree.max_leaves = 6;
  gbdt::Booster booster = *gbdt::Booster::Train(raw, labels, options);
  if (raw_out != nullptr) *raw_out = std::move(raw);
  return booster;
}

TEST(CompiledForestTest, MatchesBoosterShape) {
  const gbdt::Booster booster = TrainSmallBooster(nullptr);
  const CompiledForest forest = *CompiledForest::Build(booster);
  EXPECT_EQ(forest.num_trees(), booster.trees().size());
  EXPECT_EQ(forest.num_columns(),
            static_cast<size_t>(booster.TotalLeaves()));
  EXPECT_EQ(forest.min_feature_count(), booster.MinFeatureCount());
  size_t total_nodes = 0;
  for (const gbdt::Tree& t : booster.trees()) total_nodes += t.num_nodes();
  EXPECT_EQ(forest.num_nodes(), total_nodes);
}

TEST(CompiledForestTest, LeafColumnsMatchLeafEncoderLayout) {
  const gbdt::Booster booster = TrainSmallBooster(nullptr);
  const CompiledForest forest = *CompiledForest::Build(booster);
  const gbdt::LeafEncoder encoder(&booster);
  for (size_t t = 0; t < booster.trees().size(); ++t) {
    const std::vector<gbdt::TreeNode>& nodes = booster.trees()[t].nodes();
    const size_t base = static_cast<size_t>(forest.roots()[t]);
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (!nodes[i].is_leaf) continue;
      EXPECT_EQ(forest.leaf_col()[base + i],
                encoder.ColumnOf(t, nodes[i].leaf_ordinal))
          << "tree " << t << " node " << i;
    }
  }
}

TEST(CompiledForestTest, FusedDotMatchesSparseRowDot) {
  Matrix raw;
  const gbdt::Booster booster = TrainSmallBooster(&raw);
  const CompiledForest forest = *CompiledForest::Build(booster);
  const QuantizedForest q = QuantizedForest::Build(forest);
  const gbdt::LeafEncoder encoder(&booster);
  const linear::FeatureMatrix encoded = *encoder.Encode(raw);

  Rng rng(7);
  std::vector<double> w(forest.num_columns() + 1);
  for (double& v : w) v = rng.Normal();
  const size_t rows = raw.rows();
  const size_t stride = q.min_feature_count();
  const std::vector<const double*> tables(rows, w.data());
  for (const SimdLevel level : KernelLevels()) {
    const ScoringKernel& kernel = KernelFor(level);
    std::vector<float> plane(rows * stride);
    for (size_t r = 0; r < rows; ++r) {
      kernel.quantize_cells(raw.Row(r), plane.data() + r * stride, stride);
    }
    std::vector<double> acc(rows, 0.0);
    std::vector<uint32_t> masks(q.num_trees() * kGroupRows);
    kernel.accumulate(q, plane.data(), stride, rows, tables.data(),
                      acc.data(), masks.data());
    for (size_t r = 0; r < rows; ++r) {
      ASSERT_EQ(acc[r], encoded.RowDot(r, w))
          << "row " << r << " kernel " << SimdLevelName(level);
    }
  }
}

gbdt::Booster BoosterFromTrees(std::vector<gbdt::Tree> trees) {
  return gbdt::Booster(0.0, std::move(trees));
}

TEST(CompiledForestTest, RejectsEmptyTree) {
  std::vector<gbdt::Tree> trees;
  trees.emplace_back(std::vector<gbdt::TreeNode>{});
  EXPECT_FALSE(CompiledForest::Build(BoosterFromTrees(std::move(trees))).ok());
}

TEST(CompiledForestTest, RejectsLeafOrdinalOutOfRange) {
  gbdt::TreeNode leaf;
  leaf.is_leaf = true;
  leaf.leaf_ordinal = 3;  // only one leaf in the tree
  std::vector<gbdt::Tree> trees;
  trees.emplace_back(std::vector<gbdt::TreeNode>{leaf});
  const auto forest =
      CompiledForest::Build(BoosterFromTrees(std::move(trees)));
  ASSERT_FALSE(forest.ok());
  EXPECT_EQ(forest.status().code(), StatusCode::kInvalidArgument);
}

TEST(CompiledForestTest, RejectsChildOutOfRange) {
  gbdt::TreeNode split;
  split.is_leaf = false;
  split.feature = 0;
  split.left = 1;
  split.right = 9;  // no such node
  gbdt::TreeNode leaf;
  leaf.is_leaf = true;
  leaf.leaf_ordinal = 0;
  std::vector<gbdt::Tree> trees;
  trees.emplace_back(std::vector<gbdt::TreeNode>{split, leaf});
  EXPECT_FALSE(CompiledForest::Build(BoosterFromTrees(std::move(trees))).ok());
}

TEST(CompiledForestTest, SingleLeafTreeMapsToItsColumn) {
  gbdt::TreeNode leaf;
  leaf.is_leaf = true;
  leaf.leaf_ordinal = 0;
  std::vector<gbdt::Tree> trees;
  trees.emplace_back(std::vector<gbdt::TreeNode>{leaf});
  trees.emplace_back(std::vector<gbdt::TreeNode>{leaf});
  const CompiledForest forest =
      *CompiledForest::Build(BoosterFromTrees(std::move(trees)));
  EXPECT_EQ(forest.num_columns(), 2u);
  EXPECT_EQ(forest.min_feature_count(), 0u);
  const QuantizedForest q = QuantizedForest::Build(forest);
  const float row[] = {0.0f};
  EXPECT_EQ(q.LeafColumn(0, row), 0u);
  EXPECT_EQ(q.LeafColumn(1, row), 1u);
  // The kernel reads no feature at all: each tree adds its only column.
  const double w[] = {0.25, 0.5, 1.0};
  const double* tables[] = {w};
  for (const SimdLevel level : KernelLevels()) {
    double acc = 0.0;
    std::vector<uint32_t> masks(q.num_trees() * kGroupRows);
    KernelFor(level).accumulate(q, row, 0, 1, tables, &acc, masks.data());
    EXPECT_EQ(acc, 0.75) << SimdLevelName(level);
  }
}

}  // namespace
}  // namespace lightmirm::serve
