// QuantizedForest + scoring kernel coverage: the forest Build compiles
// from a booster has the booster's shape, follows gbdt::LeafEncoder's column
// layout, and Build and gbdt::LoadBooster reject malformed trees; the
// kernel's tree sums equal the legacy sparse RowDot; the tie-preserving
// float threshold rounding, quantized-vs-double leaf agreement on trained
// boosters, the false-node table invariants, and randomized property tests
// that drive both builds of the kernel (baseline ISA and -mavx2) against
// the QuantizedForest::LeafColumn descent over adversarial inputs (NaN /
// ±inf features, thresholds parked exactly on float rounding boundaries,
// forests on both sides of the 32-leaf mask width, per-row weight tables).
#include "serve/quantized_forest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "gbdt/leaf_encoder.h"
#include "gbdt/serialize.h"
#include "gbdt/tree.h"
#include "serve/simd_dispatch.h"
#include "serve/simd_kernel.h"

namespace lightmirm::serve {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

gbdt::Booster TrainSmallBooster(Matrix* raw_out) {
  Rng rng(77);
  const size_t rows = 1500, cols = 6;
  Matrix raw(rows, cols);
  std::vector<int> labels(rows);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) raw.At(r, c) = rng.Normal();
    labels[r] = rng.Bernoulli(0.3 + 0.4 * (raw.At(r, 1) > 0.0)) ? 1 : 0;
  }
  gbdt::BoosterOptions options;
  options.num_trees = 24;
  options.tree.max_leaves = 8;
  gbdt::Booster booster = *gbdt::Booster::Train(raw, labels, options);
  if (raw_out != nullptr) *raw_out = std::move(raw);
  return booster;
}

// The scalar build, plus the AVX2 build when the CPU runs it.
std::vector<SimdLevel> KernelLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (DetectedSimdLevel() == SimdLevel::kAvx2) {
    levels.push_back(SimdLevel::kAvx2);
  }
  return levels;
}

// CompiledForestTest: the node arrays QuantizedForest::Build compiles from
// a booster, and the malformed trees it refuses to compile.
TEST(CompiledForestTest, MatchesBoosterShape) {
  const gbdt::Booster booster = TrainSmallBooster(nullptr);
  const QuantizedForest q = *QuantizedForest::Build(booster);
  EXPECT_EQ(q.num_trees(), booster.trees().size());
  EXPECT_EQ(q.num_columns(), static_cast<size_t>(booster.TotalLeaves()));
  EXPECT_EQ(q.min_feature_count(), booster.MinFeatureCount());
  size_t total_nodes = 0;
  for (const gbdt::Tree& t : booster.trees()) total_nodes += t.num_nodes();
  EXPECT_EQ(q.num_nodes(), total_nodes);
}

// The packed false-node tables agree with the compiled node arrays: one
// entry per split, and the trees' leaf bits cover every column once.
TEST(QuantizedForestTest, MatchesCompiledShapeAndColumns) {
  const gbdt::Booster booster = TrainSmallBooster(nullptr);
  const QuantizedForest q = *QuantizedForest::Build(booster);
  ASSERT_TRUE(q.bitvector_ready());
  EXPECT_EQ(static_cast<size_t>(q.split_begin()[q.num_split_features()]),
            q.num_nodes() - q.num_columns());
  std::vector<uint32_t> cols;
  for (size_t t = 0; t < q.num_trees(); ++t) {
    const uint32_t* bits = q.leaf_col_by_bit() + t * QuantizedForest::kLeafBits;
    cols.insert(cols.end(), bits, bits + booster.trees()[t].num_leaves());
  }
  std::sort(cols.begin(), cols.end());
  std::vector<uint32_t> want(q.num_columns());
  std::iota(want.begin(), want.end(), 0u);
  EXPECT_EQ(cols, want);
}

// Leaf bit b of tree t is the tree's b-th leaf from the left (an in-order
// walk); its column must be the one gbdt::LeafEncoder gives that leaf.
TEST(QuantizedForestTest, LeafColumnsMatchLeafEncoderLayout) {
  const gbdt::Booster booster = TrainSmallBooster(nullptr);
  const QuantizedForest q = *QuantizedForest::Build(booster);
  ASSERT_TRUE(q.bitvector_ready());
  const gbdt::LeafEncoder encoder(&booster);
  for (size_t t = 0; t < booster.trees().size(); ++t) {
    const std::vector<gbdt::TreeNode>& nodes = booster.trees()[t].nodes();
    const uint32_t* cols = q.leaf_col_by_bit() + t * QuantizedForest::kLeafBits;
    size_t bit = 0;
    const auto visit = [&](const auto& self, int i) -> void {
      const gbdt::TreeNode& n = nodes[static_cast<size_t>(i)];
      if (n.is_leaf) {
        EXPECT_EQ(cols[bit++], encoder.ColumnOf(t, n.leaf_ordinal))
            << "tree " << t << " leaf " << n.leaf_ordinal;
        return;
      }
      self(self, n.left);
      self(self, n.right);
    };
    visit(visit, 0);
    EXPECT_EQ(bit, static_cast<size_t>(booster.trees()[t].num_leaves()));
  }
}

TEST(QuantizedForestTest, FusedDotMatchesSparseRowDot) {
  Matrix raw;
  const gbdt::Booster booster = TrainSmallBooster(&raw);
  const QuantizedForest q = *QuantizedForest::Build(booster);
  const gbdt::LeafEncoder encoder(&booster);
  const linear::FeatureMatrix encoded = *encoder.Encode(raw);

  Rng rng(7);
  std::vector<double> w(q.num_columns() + 1);
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

gbdt::TreeNode Leaf(int ordinal) { return {.leaf_ordinal = ordinal}; }

gbdt::TreeNode Split(int feature, int left, int right) {
  return {.is_leaf = false, .feature = feature, .left = left, .right = right};
}

// Build rejects `nodes`, a tree a hostile or corrupt model file can hold,
// with InvalidArgument, alone and behind a well-formed tree; so does
// LoadBooster reading it back from SaveBooster's text, before anything
// (LeafEncoder on the training path) descends it.
void ExpectRejected(const char* name,
                    const std::vector<gbdt::TreeNode>& nodes) {
  for (const bool behind_good_tree : {false, true}) {
    std::vector<gbdt::Tree> trees;
    if (behind_good_tree) {
      trees.emplace_back(
          std::vector<gbdt::TreeNode>{Split(0, 1, 2), Leaf(0), Leaf(1)});
    }
    trees.emplace_back(nodes);
    const gbdt::Booster booster(0.0, std::move(trees));
    const Result<QuantizedForest> forest = QuantizedForest::Build(booster);
    ASSERT_FALSE(forest.ok()) << name;
    EXPECT_EQ(forest.status().code(), StatusCode::kInvalidArgument) << name;

    std::stringstream text;
    ASSERT_TRUE(gbdt::SaveBooster(booster, &text).ok()) << name;
    const Result<gbdt::Booster> loaded = gbdt::LoadBooster(&text);
    ASSERT_FALSE(loaded.ok()) << name;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << name;
  }
}

TEST(CompiledForestTest, RejectsEmptyTree) {
  ExpectRejected("empty tree", {});
}

TEST(CompiledForestTest, RejectsLeafOrdinalOutOfRange) {
  ExpectRejected("leaf ordinal past the leaf count", {Leaf(3)});
  ExpectRejected("negative leaf ordinal", {Leaf(-1)});
}

TEST(CompiledForestTest, RejectsChildOutOfRange) {
  ExpectRejected("child out of range", {Split(0, 1, 9), Leaf(0)});
  ExpectRejected("negative child", {Split(0, -1, 1), Leaf(0)});
}

TEST(QuantizedForestTest, RejectsMalformedTrees) {
  const struct {
    const char* name;
    std::vector<gbdt::TreeNode> nodes;
  } kCases[] = {
      {"negative split feature", {Split(-1, 1, 2), Leaf(0), Leaf(1)}},
      {"split is its own child", {Split(0, 0, 1), Leaf(0)}},
      {"cycle through the root",
       {Split(0, 1, 2), Split(1, 0, 3), Leaf(0), Leaf(1)}},
      {"shared subtree", {Split(0, 1, 1), Leaf(0)}},
      {"shared subtree below the root",
       {Split(0, 1, 2), Split(1, 3, 4), Split(2, 3, 4), Leaf(0), Leaf(1)}},
  };
  for (const auto& c : kCases) ExpectRejected(c.name, c.nodes);
}

TEST(QuantizedForestTest, SingleLeafTreeMapsToItsColumn) {
  std::vector<gbdt::Tree> trees;
  trees.emplace_back(std::vector<gbdt::TreeNode>{Leaf(0)});
  trees.emplace_back(std::vector<gbdt::TreeNode>{Leaf(0)});
  const QuantizedForest q =
      *QuantizedForest::Build(gbdt::Booster(0.0, std::move(trees)));
  EXPECT_EQ(q.num_columns(), 2u);
  EXPECT_EQ(q.min_feature_count(), 0u);
  EXPECT_EQ(q.num_split_features(), 0u);
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

TEST(QuantizeThresholdTest, FloatImageNeverExceedsDouble) {
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const double t = rng.Normal(0.0, 1e3) * std::pow(10.0, rng.Uniform(-6, 6));
    const float f = gbdt::QuantizeThreshold(t);
    EXPECT_LE(static_cast<double>(f), t) << t;
    // Largest such float: one step up must land strictly above t.
    EXPECT_GT(static_cast<double>(std::nextafterf(f, kInf)), t) << t;
  }
}

TEST(QuantizeThresholdTest, ExactOnRepresentableAndBoundaryValues) {
  EXPECT_EQ(gbdt::QuantizeThreshold(1.5), 1.5f);
  EXPECT_EQ(gbdt::QuantizeThreshold(0.0), 0.0f);
  EXPECT_EQ(gbdt::QuantizeThreshold(-2.25), -2.25f);
  // Just above a representable float rounds down onto it; just below steps
  // to the previous float.
  const float f = 1.1f;
  const double above = std::nextafter(static_cast<double>(f), 2.0);
  const double below = std::nextafter(static_cast<double>(f), 0.0);
  EXPECT_EQ(gbdt::QuantizeThreshold(above), f);
  EXPECT_EQ(gbdt::QuantizeThreshold(below), std::nextafterf(f, 0.0f));
  // Beyond float range clamps without inventing comparisons.
  EXPECT_EQ(gbdt::QuantizeThreshold(1e39), std::numeric_limits<float>::max());
  EXPECT_EQ(gbdt::QuantizeThreshold(kInf), kInf);
  EXPECT_TRUE(std::isnan(gbdt::QuantizeThreshold(
      std::numeric_limits<double>::quiet_NaN())));
}

TEST(QuantizedForestTest, ScalarLeafColumnsMatchDoublePathOnTrainedModel) {
  Matrix raw;
  const gbdt::Booster booster = TrainSmallBooster(&raw);
  const QuantizedForest q = *QuantizedForest::Build(booster);
  const gbdt::LeafEncoder encoder(&booster);
  std::vector<float> row_f(raw.cols());
  for (size_t r = 0; r < raw.rows(); r += 13) {
    const double* row = raw.Row(r);
    // Same largest-float-below rounding the serving plane uses: ties with
    // split thresholds (bin bounds are observed values) must stay exact.
    for (size_t c = 0; c < raw.cols(); ++c) {
      row_f[c] = gbdt::QuantizeThreshold(row[c]);
    }
    for (size_t t = 0; t < q.num_trees(); ++t) {
      const int leaf = booster.trees()[t].PredictLeaf(row);
      EXPECT_EQ(q.LeafColumn(t, row_f.data()), encoder.ColumnOf(t, leaf))
          << "row " << r << " tree " << t;
    }
  }
}

// --- Randomized kernel-vs-descent property tests ---------------------------

// A random tree whose thresholds are deliberately adversarial: exact
// floats, doubles a half-ULP off a float, and huge/tiny magnitudes.
struct RandomForestSpec {
  std::vector<gbdt::Tree> trees;
  int num_features = 0;
};

double AdversarialThreshold(Rng* rng) {
  const double base = rng->Normal() * std::pow(10.0, rng->Uniform(-3, 3));
  switch (rng->UniformInt(4)) {
    case 0:  // exactly float-representable
      return static_cast<double>(static_cast<float>(base));
    case 1: {  // just above a float (rounds down onto it)
      const float f = static_cast<float>(base);
      return std::nextafter(static_cast<double>(f), kInf);
    }
    case 2: {  // just below a float (steps to the previous float)
      const float f = static_cast<float>(base);
      return std::nextafter(static_cast<double>(f), -kInf);
    }
    default:
      return base;
  }
}

// Grows a subtree of at most depth_left levels; each node stops as a leaf
// with probability stop_prob (0 grows a full tree).
int BuildRandomSubtree(std::vector<gbdt::TreeNode>* nodes, Rng* rng,
                       int num_features, int depth_left, double stop_prob,
                       int* next_ordinal) {
  const int idx = static_cast<int>(nodes->size());
  nodes->emplace_back();
  if (depth_left == 0 || rng->Bernoulli(stop_prob)) {
    (*nodes)[idx].is_leaf = true;
    (*nodes)[idx].leaf_ordinal = (*next_ordinal)++;
    return idx;
  }
  (*nodes)[idx].is_leaf = false;
  (*nodes)[idx].feature =
      static_cast<int>(rng->UniformInt(static_cast<uint64_t>(num_features)));
  (*nodes)[idx].threshold = AdversarialThreshold(rng);
  const int left = BuildRandomSubtree(nodes, rng, num_features,
                                      depth_left - 1, stop_prob,
                                      next_ordinal);
  const int right = BuildRandomSubtree(nodes, rng, num_features,
                                       depth_left - 1, stop_prob,
                                       next_ordinal);
  (*nodes)[idx].left = left;
  (*nodes)[idx].right = right;
  return idx;
}

// Trees of at most 5 levels (<= 32 leaves, so the false-node tables are
// built). With `wide`, one tree at a random position is a full 6-level
// tree of 64 leaves, which sends the whole forest down the LeafColumn
// descent.
RandomForestSpec MakeRandomForest(Rng* rng, bool wide) {
  RandomForestSpec spec;
  spec.num_features = 3 + static_cast<int>(rng->UniformInt(8));
  const size_t num_trees = 1 + rng->UniformInt(12);
  const size_t wide_tree = wide ? rng->UniformInt(num_trees) : num_trees;
  for (size_t t = 0; t < num_trees; ++t) {
    std::vector<gbdt::TreeNode> nodes;
    int next_ordinal = 0;
    if (t == wide_tree) {
      BuildRandomSubtree(&nodes, rng, spec.num_features, 6, 0.0,
                         &next_ordinal);
    } else {
      BuildRandomSubtree(&nodes, rng, spec.num_features,
                         2 + static_cast<int>(rng->UniformInt(4)), 0.3,
                         &next_ordinal);
    }
    spec.trees.emplace_back(std::move(nodes));
  }
  return spec;
}

float AdversarialFeature(Rng* rng) {
  switch (rng->UniformInt(8)) {
    case 0:
      return kNan;
    case 1:
      return kInf;
    case 2:
      return -kInf;
    case 3:
      return 0.0f;
    default:
      return static_cast<float>(rng->Normal() *
                                std::pow(10.0, rng->Uniform(-3, 3)));
  }
}

// Runs every kernel build over n plane rows with per-row `tables` and
// asserts exact double equality with the reference: the LeafColumn
// descent's weights summed in increasing tree order.
void ExpectKernelsMatchDescent(const QuantizedForest& q,
                               const std::vector<float>& plane,
                               size_t stride, size_t n,
                               const std::vector<const double*>& tables,
                               const std::string& where) {
  std::vector<double> want(n, 0.0);
  for (size_t t = 0; t < q.num_trees(); ++t) {
    for (size_t i = 0; i < n; ++i) {
      want[i] += tables[i][q.LeafColumn(t, plane.data() + i * stride)];
    }
  }
  std::vector<uint32_t> masks(q.num_trees() * kGroupRows);
  for (const SimdLevel level : KernelLevels()) {
    std::vector<double> got(n, 0.0);
    KernelFor(level).accumulate(q, plane.data(), stride, n, tables.data(),
                                got.data(), masks.data());
    ASSERT_EQ(got, want) << where << " kernel " << SimdLevelName(level);
  }
}

TEST(SimdKernelPropertyTest, SimdMatchesScalarOnRandomForests) {
  if (DetectedSimdLevel() != SimdLevel::kAvx2) {
    GTEST_LOG_(INFO) << "AVX2 unavailable; scalar build only";
  }
  Rng rng(20260808);
  // Single rows, partial lane blocks, whole and partial 32-row groups.
  const size_t kRowCounts[] = {1, 7, 8, 31, 32, 33, 63, 64, 77};
  for (int round = 0; round < 60; ++round) {
    const bool wide = round % 2 == 1;
    const RandomForestSpec spec = MakeRandomForest(&rng, wide);
    const auto built = QuantizedForest::Build(gbdt::Booster(0.0, spec.trees));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const QuantizedForest& q = *built;
    ASSERT_EQ(q.bitvector_ready(), !wide) << "round " << round;

    const size_t stride = q.min_feature_count();
    std::vector<double> w(q.num_columns() + 1);
    for (double& v : w) v = rng.Normal();
    std::vector<double> alt(w);
    for (double& v : alt) v += rng.Normal();
    for (const size_t n : kRowCounts) {
      std::vector<float> plane(n * stride);
      for (float& v : plane) v = AdversarialFeature(&rng);
      // Env overrides: each row reads the global or an override table.
      std::vector<const double*> tables(n);
      for (const double*& table : tables) {
        table = rng.Bernoulli(0.5) ? w.data() : alt.data();
      }
      ExpectKernelsMatchDescent(
          q, plane, stride, n, tables,
          "round " + std::to_string(round) + " rows " + std::to_string(n));
    }
  }
}

// False-node tables: structural invariants, then the sweep against the
// descent with every row on the global table, over ready random forests.
TEST(SimdKernelPropertyTest, BitvectorMatchesScalarOnRandomForests) {
  Rng rng(424242);
  constexpr size_t kRows = 77;  // two whole 32-row groups + a partial one
  for (int round = 0; round < 100; ++round) {
    const RandomForestSpec spec = MakeRandomForest(&rng, /*wide=*/false);
    const auto built = QuantizedForest::Build(gbdt::Booster(0.0, spec.trees));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const QuantizedForest& q = *built;
    ASSERT_TRUE(q.bitvector_ready()) << "round " << round;

    // The tables hold exactly the internal nodes, one non-empty run per
    // split feature, features ascending, thresholds ascending in each run.
    size_t internal = 0;
    for (const gbdt::Tree& tree : spec.trees) {
      for (const gbdt::TreeNode& n : tree.nodes()) internal += !n.is_leaf;
    }
    const size_t runs = q.num_split_features();
    const int32_t* features = q.split_features();
    const int32_t* begin = q.split_begin();
    ASSERT_EQ(begin[0], 0);
    ASSERT_EQ(static_cast<size_t>(begin[runs]), internal);
    for (size_t k = 0; k < runs; ++k) {
      ASSERT_LT(begin[k], begin[k + 1]);
      ASSERT_LT(static_cast<size_t>(features[k]), q.min_feature_count());
      if (k > 0) {
        ASSERT_LT(features[k - 1], features[k]);
      }
      for (int32_t j = begin[k] + 1; j < begin[k + 1]; ++j) {
        ASSERT_LE(q.sorted_threshold()[j - 1], q.sorted_threshold()[j])
            << "round " << round << " feature " << features[k];
      }
    }

    const size_t stride = q.min_feature_count();
    std::vector<float> plane(kRows * stride);
    for (float& v : plane) v = AdversarialFeature(&rng);
    std::vector<double> w(q.num_columns() + 1);
    for (double& v : w) v = rng.Normal();
    ExpectKernelsMatchDescent(q, plane, stride, kRows,
                              std::vector<const double*>(kRows, w.data()),
                              "round " + std::to_string(round));
  }
}

// Both builds of the plane conversion must reproduce
// gbdt::QuantizeThreshold bit for bit on every input class the
// branch-free integer-image step has to handle: NaN, ±inf, ±0,
// beyond-float-range, subnormal-range doubles, and doubles one ULP off a
// float in either direction.
TEST(QuantizeCellsTest, MatchesScalarOnAdversarialDoubles) {
  Rng rng(9);
  const size_t sizes[] = {0, 1, 3, 8, 13, 64, 257};
  for (const size_t n : sizes) {
    std::vector<double> src(n);
    for (double& v : src) {
      switch (rng.UniformInt(10)) {
        case 0:
          v = std::numeric_limits<double>::quiet_NaN();
          break;
        case 1:
          v = static_cast<double>(kInf);
          break;
        case 2:
          v = static_cast<double>(-kInf);
          break;
        case 3:
          v = rng.Bernoulli(0.5) ? 0.0 : -0.0;
          break;
        case 4:  // beyond float range, both signs
          v = rng.Bernoulli(0.5) ? 1e39 : -1e39;
          break;
        case 5:  // below the float subnormal range
          v = (rng.Bernoulli(0.5) ? 1.0 : -1.0) * 1e-310;
          break;
        case 6: {  // one double-ULP off an exact float
          const float f = static_cast<float>(rng.Normal());
          v = std::nextafter(static_cast<double>(f),
                             rng.Bernoulli(0.5) ? kInf : -kInf);
          break;
        }
        default:
          v = rng.Normal() * std::pow(10.0, rng.Uniform(-6, 6));
      }
    }
    for (const SimdLevel level : KernelLevels()) {
      std::vector<float> dst(n + 1, 42.0f);  // canary past the written range
      KernelFor(level).quantize_cells(src.data(), dst.data(), n);
      for (size_t c = 0; c < n; ++c) {
        const float want = gbdt::QuantizeThreshold(src[c]);
        uint32_t want_bits = 0, got_bits = 0;
        std::memcpy(&want_bits, &want, sizeof(want_bits));
        std::memcpy(&got_bits, &dst[c], sizeof(got_bits));
        EXPECT_EQ(got_bits, want_bits) << "n " << n << " cell " << c
                                       << " src " << src[c] << " kernel "
                                       << SimdLevelName(level);
      }
      EXPECT_EQ(dst[n], 42.0f) << "n " << n;
    }
  }
}

TEST(SimdDispatchTest, SetLevelClampsToDetected) {
  const SimdLevel detected = DetectedSimdLevel();
  {
    ScopedSimdLevel scalar(SimdLevel::kScalar);
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
    EXPECT_EQ(SetSimdLevel(SimdLevel::kAvx2), detected);
    EXPECT_EQ(ActiveSimdLevel(), detected);
  }
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
  EXPECT_FALSE(CpuModelName().empty());
}

}  // namespace
}  // namespace lightmirm::serve
