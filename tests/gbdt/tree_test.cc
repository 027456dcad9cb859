#include "gbdt/tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <set>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace lightmirm::gbdt {
namespace {

struct Problem {
  Matrix raw;
  BinnedMatrix binned;
  std::vector<double> grads;
  std::vector<double> hessians;
  std::vector<size_t> rows;
};

// Gradient pattern an ideal tree can fit: grad = -sign(x0) - sign(x1)/2.
Problem MakeProblem(size_t n, uint64_t seed) {
  Rng rng(seed);
  Problem p{Matrix(n, 2), BinnedMatrix(), {}, {}, {}};
  p.grads.resize(n);
  p.hessians.assign(n, 1.0);
  for (size_t i = 0; i < n; ++i) {
    p.raw.At(i, 0) = rng.Normal();
    p.raw.At(i, 1) = rng.Normal();
    p.grads[i] = -(p.raw.At(i, 0) > 0 ? 1.0 : -1.0) -
                 0.5 * (p.raw.At(i, 1) > 0 ? 1.0 : -1.0);
    p.rows.push_back(i);
  }
  p.binned = *BinnedMatrix::Build(p.raw, 32);
  return p;
}

TEST(GrowTreeTest, RespectsMaxLeaves) {
  Problem p = MakeProblem(500, 1);
  TreeLearnerOptions options;
  options.max_leaves = 4;
  Rng rng(2);
  const Tree tree =
      *GrowTree(p.binned, p.rows, p.grads, p.hessians, options, &rng);
  EXPECT_LE(tree.num_leaves(), 4);
  EXPECT_GE(tree.num_leaves(), 2);
}

TEST(GrowTreeTest, LeafOrdinalsAreDense) {
  Problem p = MakeProblem(500, 3);
  TreeLearnerOptions options;
  options.max_leaves = 8;
  Rng rng(4);
  const Tree tree =
      *GrowTree(p.binned, p.rows, p.grads, p.hessians, options, &rng);
  std::set<int> ordinals;
  for (const TreeNode& node : tree.nodes()) {
    if (node.is_leaf) ordinals.insert(node.leaf_ordinal);
  }
  EXPECT_EQ(static_cast<int>(ordinals.size()), tree.num_leaves());
  EXPECT_EQ(*ordinals.begin(), 0);
  EXPECT_EQ(*ordinals.rbegin(), tree.num_leaves() - 1);
}

TEST(GrowTreeTest, PredictLeafMatchesTraversal) {
  Problem p = MakeProblem(300, 5);
  TreeLearnerOptions options;
  options.max_leaves = 6;
  Rng rng(6);
  const Tree tree =
      *GrowTree(p.binned, p.rows, p.grads, p.hessians, options, &rng);
  for (size_t i = 0; i < 300; i += 7) {
    const int leaf = tree.PredictLeaf(p.raw.Row(i));
    EXPECT_GE(leaf, 0);
    EXPECT_LT(leaf, tree.num_leaves());
    // Rows in the same leaf share the same prediction.
    EXPECT_EQ(tree.Predict(p.raw.Row(i)),
              tree.Predict(p.raw.Row(i)));
  }
}

TEST(GrowTreeTest, FitsSignPattern) {
  // With 4 leaves the tree can capture the 2x2 sign structure: predictions
  // should be positively correlated with -grad.
  Problem p = MakeProblem(2000, 7);
  TreeLearnerOptions options;
  options.max_leaves = 4;
  options.shrinkage = 1.0;
  Rng rng(8);
  const Tree tree =
      *GrowTree(p.binned, p.rows, p.grads, p.hessians, options, &rng);
  double corr = 0.0;
  for (size_t i = 0; i < 2000; ++i) {
    corr += tree.Predict(p.raw.Row(i)) * (-p.grads[i]);
  }
  EXPECT_GT(corr / 2000.0, 0.5);
}

TEST(GrowTreeTest, ShrinkageScalesLeafValues) {
  Problem p = MakeProblem(500, 9);
  TreeLearnerOptions full, tenth;
  full.max_leaves = 4;
  full.shrinkage = 1.0;
  tenth.max_leaves = 4;
  tenth.shrinkage = 0.1;
  Rng rng1(10), rng2(10);
  const Tree t1 =
      *GrowTree(p.binned, p.rows, p.grads, p.hessians, full, &rng1);
  const Tree t2 =
      *GrowTree(p.binned, p.rows, p.grads, p.hessians, tenth, &rng2);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_NEAR(t2.Predict(p.raw.Row(i)), 0.1 * t1.Predict(p.raw.Row(i)),
                1e-9);
  }
}

TEST(GrowTreeTest, PureNodeStopsEarly) {
  // Uniform gradient: no split has positive gain -> single leaf.
  const size_t n = 100;
  Matrix raw(n, 1);
  Rng data_rng(11);
  for (size_t i = 0; i < n; ++i) raw.At(i, 0) = data_rng.Normal();
  const BinnedMatrix binned = *BinnedMatrix::Build(raw, 16);
  std::vector<double> grads(n, 1.0), hessians(n, 1.0);
  std::vector<size_t> rows;
  for (size_t i = 0; i < n; ++i) rows.push_back(i);
  TreeLearnerOptions options;
  options.max_leaves = 16;
  Rng rng(12);
  const Tree tree = *GrowTree(binned, rows, grads, hessians, options, &rng);
  EXPECT_EQ(tree.num_leaves(), 1);
}

TEST(GrowTreeTest, RejectsBadInputs) {
  Problem p = MakeProblem(50, 13);
  TreeLearnerOptions options;
  Rng rng(14);
  options.max_leaves = 1;
  EXPECT_FALSE(
      GrowTree(p.binned, p.rows, p.grads, p.hessians, options, &rng).ok());
  options.max_leaves = 4;
  EXPECT_FALSE(
      GrowTree(p.binned, {}, p.grads, p.hessians, options, &rng).ok());
}

TEST(GrowTreeTest, FeatureFractionLimitsFeatures) {
  Problem p = MakeProblem(500, 15);
  TreeLearnerOptions options;
  options.max_leaves = 8;
  options.feature_fraction = 0.5;  // only 1 of 2 features per tree
  Rng rng(16);
  const Tree tree =
      *GrowTree(p.binned, p.rows, p.grads, p.hessians, options, &rng);
  std::set<int> used;
  for (const TreeNode& node : tree.nodes()) {
    if (!node.is_leaf) used.insert(node.feature);
  }
  EXPECT_LE(used.size(), 1u);
}

bool SameBits(double a, double b) {
  uint64_t ab, bb;
  std::memcpy(&ab, &a, sizeof(ab));
  std::memcpy(&bb, &b, sizeof(bb));
  return ab == bb;
}

void ExpectSameTree(const Tree& a, const Tree& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (size_t i = 0; i < a.num_nodes(); ++i) {
    const TreeNode& x = a.nodes()[i];
    const TreeNode& y = b.nodes()[i];
    EXPECT_EQ(x.is_leaf, y.is_leaf) << "node " << i;
    EXPECT_EQ(x.feature, y.feature) << "node " << i;
    EXPECT_TRUE(SameBits(x.threshold, y.threshold)) << "node " << i;
    EXPECT_EQ(x.left, y.left) << "node " << i;
    EXPECT_EQ(x.right, y.right) << "node " << i;
    EXPECT_TRUE(SameBits(x.leaf_value, y.leaf_value)) << "node " << i;
    EXPECT_EQ(x.leaf_ordinal, y.leaf_ordinal) << "node " << i;
  }
}

// The booster adds each leaf's value to the rows GrowTree placed there
// instead of predicting every row, so the two must agree on every row:
// NaN rows, and rows whose value is exactly a split's bin bound.
TEST(GrowTreeTest, LeafRowsAreTheRowsPredictLeafReaches) {
  const size_t n = 3000;
  Rng rng(21);
  Matrix raw(n, 3);
  std::vector<double> grads(n), hessians(n);
  for (size_t i = 0; i < n; ++i) {
    const bool missing = rng.Bernoulli(0.2);
    raw.At(i, 0) =
        missing ? std::numeric_limits<double>::quiet_NaN() : rng.Normal();
    // Six values: every bin bound is a value rows hold exactly.
    raw.At(i, 1) = static_cast<double>(rng.UniformInt(6));
    raw.At(i, 2) = rng.Normal();
    grads[i] = (missing ? -2.0 : (raw.At(i, 0) > 0.3 ? 1.0 : -0.5)) +
               (raw.At(i, 1) >= 3.0 ? 1.0 : -1.0) + 0.3 * raw.At(i, 2);
    hessians[i] = rng.Uniform(0.5, 1.5);
  }
  const BinnedMatrix binned = *BinnedMatrix::Build(raw, 16);
  std::vector<size_t> every_row(n), every_third_row;
  for (size_t i = 0; i < n; ++i) {
    every_row[i] = i;
    if (i % 3 == 1) every_third_row.push_back(i);
  }
  TreeLearnerOptions options;
  options.max_leaves = 16;
  options.split.min_data_in_leaf = 5;
  for (const std::vector<size_t>* rows : {&every_row, &every_third_row}) {
    Rng tree_rng(22);
    std::vector<std::vector<size_t>> leaf_rows;
    const Tree tree = *GrowTree(binned, *rows, grads, hessians, options,
                                &tree_rng, nullptr, &leaf_rows);
    std::set<int> split_features;
    size_t on_bound = 0;
    for (const TreeNode& node : tree.nodes()) {
      if (node.is_leaf) continue;
      split_features.insert(node.feature);
      for (size_t r : *rows) {
        on_bound += raw.At(r, static_cast<size_t>(node.feature)) ==
                    node.threshold;
      }
    }
    EXPECT_EQ(split_features, (std::set<int>{0, 1, 2}));
    EXPECT_GT(on_bound, 0u);
    ASSERT_EQ(leaf_rows.size(), static_cast<size_t>(tree.num_leaves()));
    std::vector<size_t> placed;
    for (size_t k = 0; k < leaf_rows.size(); ++k) {
      for (size_t r : leaf_rows[k]) {
        EXPECT_EQ(tree.PredictLeaf(raw.Row(r)), static_cast<int>(k))
            << "row " << r;
        placed.push_back(r);
      }
      EXPECT_TRUE(std::is_sorted(leaf_rows[k].begin(), leaf_rows[k].end()));
    }
    std::sort(placed.begin(), placed.end());
    EXPECT_EQ(placed, *rows);
  }
}

// Histograms released by one tree come back dirty to the next; Build and
// SubtractFrom must overwrite everything the next tree reads.
TEST(GrowTreeTest, ReusedHistogramsGrowTheSameTreeAsFreshOnes) {
  const Problem p = MakeProblem(3000, 31);
  std::vector<double> other_grads(p.grads.size());
  for (size_t i = 0; i < other_grads.size(); ++i) {
    other_grads[i] = 0.7 * p.raw.At(i, 1) - 0.2 * p.raw.At(i, 0) *
                                                p.raw.At(i, 0);
  }
  TreeLearnerOptions options;
  options.max_leaves = 12;
  HistogramFreeList free_list;
  Rng rng_a(5);
  ASSERT_TRUE(GrowTree(p.binned, p.rows, p.grads, p.hessians, options,
                       &rng_a, &free_list)
                  .ok());
  {
    // The list now holds the first tree's histograms, contents and all.
    std::unique_ptr<NodeHistogram> dirty =
        free_list.Acquire(p.binned.num_features(), p.binned.MaxBinCount());
    double mass = 0.0;
    for (int b = 0; b < dirty->max_bins(); ++b) mass += dirty->At(0, b).count;
    EXPECT_GT(mass, 0.0);
    free_list.Release(std::move(dirty));
  }
  Rng rng_reused(6), rng_fresh(6);
  const Tree reused = *GrowTree(p.binned, p.rows, other_grads, p.hessians,
                                options, &rng_reused, &free_list);
  const Tree fresh = *GrowTree(p.binned, p.rows, other_grads, p.hessians,
                               options, &rng_fresh);
  EXPECT_GT(fresh.num_leaves(), 2);
  ExpectSameTree(reused, fresh);
}

// GrowTree, written as a loop over the whole-histogram Build, SubtractFrom
// and FindBestSplit, each its own parallel loop: the reference for the
// one-pass-per-split learner.
Tree GrowTreeStepByStep(const BinnedMatrix& binned,
                        const std::vector<size_t>& rows,
                        const std::vector<double>& grads,
                        const std::vector<double>& hessians,
                        const TreeLearnerOptions& options, Rng* rng) {
  const size_t num_features = binned.num_features();
  std::vector<int> num_bins(num_features);
  for (size_t f = 0; f < num_features; ++f) {
    num_bins[f] = binned.mapper(f).num_bins();
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
  struct Leaf {
    int node;
    std::vector<size_t> rows;
    double grad_sum = 0.0, hess_sum = 0.0;
    std::unique_ptr<NodeHistogram> hist;
    SplitInfo best;
  };
  auto scan = [&](Leaf* leaf) {
    leaf->best = FindBestSplit(*leaf->hist, num_bins, leaf->grad_sum,
                               leaf->hess_sum,
                               static_cast<double>(leaf->rows.size()),
                               split_options);
  };
  std::vector<TreeNode> nodes(1);
  std::vector<Leaf> open(1);
  open[0].node = 0;
  open[0].rows = rows;
  for (size_t r : rows) {
    open[0].grad_sum += grads[r];
    open[0].hess_sum += hessians[r];
  }
  open[0].hist = std::make_unique<NodeHistogram>(num_features,
                                                 binned.MaxBinCount());
  open[0].hist->Build(binned, rows, grads, hessians);
  scan(&open[0]);
  for (int leaves = 1; leaves < options.max_leaves; ++leaves) {
    int pick = -1;
    double pick_gain = 0.0;
    for (size_t i = 0; i < open.size(); ++i) {
      if (open[i].best.valid && open[i].best.gain > pick_gain) {
        pick_gain = open[i].best.gain;
        pick = static_cast<int>(i);
      }
    }
    if (pick < 0) break;
    Leaf parent = std::move(open[static_cast<size_t>(pick)]);
    open.erase(open.begin() + pick);
    const SplitInfo split = parent.best;
    const size_t feature = static_cast<size_t>(split.feature);
    Leaf left, right;
    left.node = static_cast<int>(nodes.size());
    right.node = left.node + 1;
    TreeNode& node = nodes[static_cast<size_t>(parent.node)];
    node.is_leaf = false;
    node.feature = split.feature;
    node.threshold = binned.mapper(feature).UpperBound(split.bin_threshold);
    node.left = left.node;
    node.right = right.node;
    nodes.resize(nodes.size() + 2);
    for (size_t r : parent.rows) {
      const bool goes_left = binned.Bin(feature, r) <= split.bin_threshold;
      (goes_left ? left : right).rows.push_back(r);
    }
    left.grad_sum = split.left_grad;
    left.hess_sum = split.left_hess;
    right.grad_sum = split.right_grad;
    right.hess_sum = split.right_hess;
    Leaf* small = left.rows.size() <= right.rows.size() ? &left : &right;
    Leaf* large = small == &left ? &right : &left;
    small->hist = std::make_unique<NodeHistogram>(num_features,
                                                  binned.MaxBinCount());
    small->hist->Build(binned, small->rows, grads, hessians);
    large->hist = std::move(parent.hist);
    large->hist->SubtractFrom(*large->hist, *small->hist);
    scan(&left);
    scan(&right);
    open.push_back(std::move(left));
    open.push_back(std::move(right));
  }
  std::sort(open.begin(), open.end(),
            [](const Leaf& a, const Leaf& b) { return a.node < b.node; });
  int ordinal = 0;
  for (const Leaf& leaf : open) {
    TreeNode& node = nodes[static_cast<size_t>(leaf.node)];
    node.leaf_value = options.shrinkage * LeafOutput(leaf.grad_sum,
                                                     leaf.hess_sum,
                                                     split_options.lambda_l2);
    node.leaf_ordinal = ordinal++;
  }
  return Tree(std::move(nodes));
}

// One pool pass per split (build the smaller child's block, derive the
// larger child's block, scan both children's features in it) must grow the
// tree the separate steps grow, node for node and bit for bit: 13 features
// (a partial second block), a one-bin feature, NaN rows, feature
// subsampling, and nodes on both sides of the 2048-row shard.
TEST(GrowTreeTest, OnePassPerSplitGrowsTheStepByStepTree) {
  const size_t n = 6000, cols = 13;
  Rng rng(41);
  Matrix raw(n, cols);
  std::vector<double> grads(n), hessians(n);
  for (size_t i = 0; i < n; ++i) {
    const bool missing = rng.Bernoulli(0.15);
    for (size_t c = 0; c < cols; ++c) {
      raw.At(i, c) = c == 4            ? 1.0  // one bin
                     : missing && c < 6 ? std::nan("")
                                        : rng.Normal();
    }
    const double x0 = std::isnan(raw.At(i, 0)) ? 2.0 : raw.At(i, 0);
    grads[i] = (x0 > 0.2 ? 1.0 : -0.7) + 0.6 * raw.At(i, 9) -
               0.4 * (raw.At(i, 12) > -0.5 ? 1.0 : 0.0) + 0.3 * rng.Normal();
    hessians[i] = rng.Uniform(0.2, 1.2);
  }
  const BinnedMatrix binned = *BinnedMatrix::Build(raw, 24);
  ASSERT_EQ(binned.mapper(4).num_bins(), 1);
  std::vector<size_t> every_row(n), sampled;
  for (size_t i = 0; i < n; ++i) {
    every_row[i] = i;
    if (i % 5 != 2) sampled.push_back(i);
  }
  for (double fraction : {0.5, 1.0}) {
    TreeLearnerOptions options;
    options.max_leaves = 31;
    options.split.min_data_in_leaf = 5;
    options.feature_fraction = fraction;
    for (const std::vector<size_t>* rows : {&every_row, &sampled}) {
      Tree reference;
      {
        ScopedDefaultThreads serial(1);
        Rng tree_rng(77);
        reference = GrowTreeStepByStep(binned, *rows, grads, hessians,
                                       options, &tree_rng);
      }
      ASSERT_GT(reference.num_leaves(), 16);
      for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(testing::Message()
                     << "feature_fraction " << fraction << ", "
                     << rows->size() << " rows, threads " << threads);
        ScopedDefaultThreads guard(threads);
        Rng tree_rng(77);
        HistogramFreeList free_list;
        const Tree fused = *GrowTree(binned, *rows, grads, hessians, options,
                                     &tree_rng, &free_list);
        ExpectSameTree(fused, reference);
      }
    }
  }
}

TEST(QuantizeThresholdTest, FloatCompareMatchesDoubleCompareForFloats) {
  // The serving contract: for every float x and double threshold t,
  // x <= QuantizeThreshold(t) in float must equal (double)x <= t.
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    const double t = rng.Normal() * std::pow(10.0, rng.Uniform(-4, 4));
    const float qt = QuantizeThreshold(t);
    // Probe floats bracketing the threshold, including the quantized value
    // itself and its neighbors.
    const float probes[] = {
        qt,
        std::nextafterf(qt, std::numeric_limits<float>::infinity()),
        std::nextafterf(qt, -std::numeric_limits<float>::infinity()),
        static_cast<float>(t),
        static_cast<float>(rng.Normal())};
    for (const float x : probes) {
      EXPECT_EQ(x <= qt, static_cast<double>(x) <= t)
          << "x=" << x << " t=" << t;
    }
  }
}

}  // namespace
}  // namespace lightmirm::gbdt
