// QuantizedForest + scoring kernel coverage: the tie-preserving float
// threshold rounding, quantized-vs-double leaf agreement on trained
// boosters, the false-node table invariants, and randomized property tests
// that drive both builds of the kernel (baseline ISA and -mavx2) against
// the QuantizedForest::LeafColumn descent over adversarial inputs (NaN /
// ±inf features, thresholds parked exactly on float rounding boundaries,
// forests on both sides of the 32-leaf mask width, per-row weight tables).
#include "serve/quantized_forest.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "common/rng.h"
#include "gbdt/leaf_encoder.h"
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

TEST(QuantizedForestTest, MatchesCompiledShapeAndColumns) {
  const gbdt::Booster booster = TrainSmallBooster(nullptr);
  const CompiledForest forest = *CompiledForest::Build(booster);
  const QuantizedForest q = QuantizedForest::Build(forest);
  EXPECT_EQ(q.num_trees(), forest.num_trees());
  EXPECT_EQ(q.num_nodes(), forest.num_nodes());
  EXPECT_EQ(q.num_columns(), forest.num_columns());
  EXPECT_EQ(q.min_feature_count(), forest.min_feature_count());
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
  const CompiledForest forest = *CompiledForest::Build(booster);
  const QuantizedForest q = QuantizedForest::Build(forest);
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
    const auto compiled = CompiledForest::Build(gbdt::Booster(0.0, spec.trees));
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    const QuantizedForest q = QuantizedForest::Build(*compiled);
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
    const auto compiled = CompiledForest::Build(gbdt::Booster(0.0, spec.trees));
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    const QuantizedForest q = QuantizedForest::Build(*compiled);
    ASSERT_TRUE(q.bitvector_ready()) << "round " << round;

    // The tables hold exactly the internal nodes, grouped by feature with
    // ascending thresholds inside each group.
    size_t internal = 0;
    for (size_t i = 0; i < compiled->num_nodes(); ++i) {
      if (compiled->left()[i] != static_cast<int32_t>(i)) ++internal;
    }
    const int32_t* begin = q.node_begin_by_feature();
    ASSERT_EQ(static_cast<size_t>(begin[q.min_feature_count()]), internal);
    for (size_t f = 0; f < q.min_feature_count(); ++f) {
      ASSERT_LE(begin[f], begin[f + 1]);
      for (int32_t j = begin[f] + 1; j < begin[f + 1]; ++j) {
        ASSERT_LE(q.sorted_threshold()[j - 1], q.sorted_threshold()[j])
            << "round " << round << " feature " << f;
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
