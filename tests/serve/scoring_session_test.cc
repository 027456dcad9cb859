// Golden equivalence: the compiled ScoringSession must reproduce the legacy
// encode-then-dot inference path bit for bit — every method, including the
// fine-tune baseline's per-env overrides, at every thread count.
#include "serve/scoring_session.h"

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/gbdt_lr_model.h"
#include "data/loan_generator.h"
#include "serve/simd_dispatch.h"

namespace lightmirm::serve {
namespace {

const int kThreadCounts[] = {1, 2, 8};

data::Dataset GenSet(int rows_per_year, uint64_t seed) {
  data::LoanGeneratorOptions gen;
  gen.rows_per_year = rows_per_year;
  gen.last_year = 2017;  // two years
  gen.seed = seed;
  return *data::LoanGenerator(gen).Generate();
}

core::GbdtLrOptions FastOptions() {
  core::GbdtLrOptions options;
  options.booster.num_trees = 12;
  options.booster.tree.max_leaves = 6;
  options.trainer.epochs = 10;
  options.min_env_rows = 30;
  return options;
}

// Legacy reference: materialize the multi-hot encoding, then dot the sparse
// rows against the LR weights (TrainedPredictor::Predict).
std::vector<double> LegacyScores(const core::GbdtLrModel& model,
                                 const data::Dataset& batch) {
  const linear::FeatureMatrix encoded = *model.EncodeFeatures(batch);
  return model.predictor().Predict(encoded, &batch.envs());
}

TEST(ScoringSessionGoldenTest, BitIdenticalToLegacyForAllMethods) {
  const data::Dataset train = GenSet(800, 5);
  const data::Dataset batch = GenSet(500, 6);
  const core::GbdtLrOptions options = FastOptions();
  const auto booster =
      std::make_shared<const gbdt::Booster>(*gbdt::Booster::Train(
          train.features(), train.labels(), options.booster));

  for (core::Method method : core::AllMethods()) {
    const auto model = core::GbdtLrModel::TrainWithBooster(booster, train,
                                                           method, options);
    ASSERT_TRUE(model.ok()) << core::MethodName(method) << ": "
                            << model.status().ToString();
    ASSERT_NE(model->scoring_session(), nullptr);
    if (method == core::Method::kErmFineTune) {
      // The override path must actually be exercised by at least one method.
      ASSERT_GT(model->scoring_session()->num_env_overrides(), 0u);
    }
    const std::vector<double> legacy = LegacyScores(*model, batch);
    // Both serving kernels — the portable double lockstep path and (when
    // the machine has it) the quantized AVX2 path — must reproduce the
    // legacy scores bit for bit at every thread count.
    for (SimdLevel level : {SimdLevel::kScalar, DetectedSimdLevel()}) {
      ScopedSimdLevel kernel(level);
      for (int threads : kThreadCounts) {
        ScopedDefaultThreads guard(threads);
        const auto compiled =
            model->scoring_session()->Score(batch.features(), &batch.envs());
        ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
        EXPECT_EQ(legacy, *compiled)
            << core::MethodName(method) << " threads=" << threads
            << " kernel=" << SimdLevelName(level);
        // GbdtLrModel::Predict routes through the same session.
        EXPECT_EQ(legacy, *model->Predict(batch))
            << core::MethodName(method) << " threads=" << threads
            << " kernel=" << SimdLevelName(level);
      }
    }
  }
}

TEST(ScoringSessionTest, SimdAndScalarKernelsBitIdentical) {
  const data::Dataset train = GenSet(800, 5);
  const data::Dataset batch = GenSet(700, 12);
  const auto model = core::GbdtLrModel::Train(
      train, core::Method::kErmFineTune, FastOptions());
  ASSERT_TRUE(model.ok());
  std::vector<double> scalar_scores, simd_scores;
  {
    ScopedSimdLevel scalar(SimdLevel::kScalar);
    ASSERT_TRUE(model->scoring_session()
                    ->Score(batch.features(), &batch.envs(), &scalar_scores)
                    .ok());
  }
  {
    ScopedSimdLevel simd(DetectedSimdLevel());
    ASSERT_TRUE(model->scoring_session()
                    ->Score(batch.features(), &batch.envs(), &simd_scores)
                    .ok());
  }
  EXPECT_EQ(scalar_scores, simd_scores);
}

TEST(ScoringSessionTest, CheckBatchWidthReportsShape) {
  const data::Dataset train = GenSet(800, 5);
  const auto model =
      core::GbdtLrModel::Train(train, core::Method::kErm, FastOptions());
  ASSERT_TRUE(model.ok());
  const auto& session = *model->scoring_session();
  const size_t need =
      model->scoring_session()->forest().min_feature_count();
  ASSERT_GT(need, 1u);
  EXPECT_FALSE(session.CheckBatchWidth(Matrix(3, need)).has_value());
  const auto error = session.CheckBatchWidth(Matrix(3, need - 1));
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->row, 0u);
  EXPECT_EQ(error->actual_width, need - 1);
  EXPECT_EQ(error->expected_width, need);
  // Score surfaces the same shape in its message.
  const auto scores = session.Score(Matrix(3, need - 1), nullptr);
  ASSERT_FALSE(scores.ok());
  EXPECT_NE(scores.status().ToString().find("features"), std::string::npos);
}

TEST(ScoringSessionTest, NullEnvsForcesGlobalTable) {
  const data::Dataset train = GenSet(800, 5);
  const data::Dataset batch = GenSet(300, 7);
  const auto model = core::GbdtLrModel::Train(
      train, core::Method::kErmFineTune, FastOptions());
  ASSERT_TRUE(model.ok());
  const linear::FeatureMatrix encoded = *model->EncodeFeatures(batch);
  const std::vector<double> legacy =
      model->predictor().Predict(encoded, nullptr);
  const auto compiled =
      model->scoring_session()->Score(batch.features(), nullptr);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(legacy, *compiled);
}

TEST(ScoringSessionTest, ReusesOutputBufferAcrossBatches) {
  const data::Dataset train = GenSet(800, 5);
  const data::Dataset batch = GenSet(300, 8);
  const auto model =
      core::GbdtLrModel::Train(train, core::Method::kErm, FastOptions());
  ASSERT_TRUE(model.ok());
  std::vector<double> out;
  ASSERT_TRUE(model->scoring_session()
                  ->Score(batch.features(), &batch.envs(), &out)
                  .ok());
  const std::vector<double> first = out;
  const double* buffer = out.data();
  ASSERT_TRUE(model->scoring_session()
                  ->Score(batch.features(), &batch.envs(), &out)
                  .ok());
  EXPECT_EQ(out.data(), buffer);  // steady state: no reallocation
  EXPECT_EQ(first, out);
}

TEST(ScoringSessionTest, RejectsNarrowMatrix) {
  const data::Dataset train = GenSet(800, 5);
  const auto model =
      core::GbdtLrModel::Train(train, core::Method::kErm, FastOptions());
  ASSERT_TRUE(model.ok());
  const size_t need =
      model->scoring_session()->forest().min_feature_count();
  ASSERT_GT(need, 1u);
  const Matrix narrow(4, need - 1);
  const auto scores = model->scoring_session()->Score(narrow, nullptr);
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kInvalidArgument);
}

TEST(ScoringSessionTest, RejectsMisSizedEnvs) {
  const data::Dataset train = GenSet(800, 5);
  const data::Dataset batch = GenSet(300, 9);
  const auto model =
      core::GbdtLrModel::Train(train, core::Method::kErm, FastOptions());
  ASSERT_TRUE(model.ok());
  std::vector<int> envs(batch.NumRows() + 1, 0);
  const auto scores =
      model->scoring_session()->Score(batch.features(), &envs);
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kInvalidArgument);
}

TEST(ScoringSessionTest, RejectsMismatchedWeightWidth) {
  const data::Dataset train = GenSet(800, 5);
  const auto model =
      core::GbdtLrModel::Train(train, core::Method::kErm, FastOptions());
  ASSERT_TRUE(model.ok());
  train::TrainedPredictor narrow;
  narrow.global = linear::LogisticModel(3);  // wrong width
  const auto session =
      ScoringSession::Create(model->booster(), narrow);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

// Regression for the monotonically-growing plane scratch: the
// thread-local buffer used to keep its high-water capacity forever, so
// one huge backfill batch pinned megabytes on every pool thread for the
// process lifetime. It must now release when a request is under 1/4 of
// the held capacity, and keep reusing inside that band.
TEST(ScoringSessionTest, PlaneScratchShrinksAfterLargeBatch) {
  constexpr size_t kHuge = size_t{1} << 20;
  internal::PlaneBuffer(kHuge);
  ASSERT_GE(internal::PlaneBufferCapacity(), kHuge);

  // A small request after the spike frees the spike's allocation.
  internal::PlaneBuffer(1024);
  EXPECT_LE(internal::PlaneBufferCapacity(),
            1024 * internal::kPlaneShrinkFactor);

  // Wandering within the 4x band reuses the buffer (no churn on steady
  // mixed traffic): after a 4096-cell request, 2048 must not shrink.
  internal::PlaneBuffer(4096);
  const size_t held = internal::PlaneBufferCapacity();
  ASSERT_GE(held, 4096u);
  internal::PlaneBuffer(2048);
  EXPECT_EQ(internal::PlaneBufferCapacity(), held);
}

}  // namespace
}  // namespace lightmirm::serve
