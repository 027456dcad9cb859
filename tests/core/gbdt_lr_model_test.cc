#include "core/gbdt_lr_model.h"

#include <gtest/gtest.h>

#include <set>

#include "data/env_split.h"
#include "data/loan_generator.h"
#include "metrics/env_report.h"

namespace lightmirm::core {
namespace {

data::Dataset SmallTrainSet() {
  data::LoanGeneratorOptions gen;
  gen.rows_per_year = 1500;
  gen.last_year = 2018;  // 3 years, training-style data
  gen.seed = 5;
  return *data::LoanGenerator(gen).Generate();
}

GbdtLrOptions FastOptions() {
  GbdtLrOptions options;
  options.booster.num_trees = 15;
  options.booster.tree.max_leaves = 8;
  options.trainer.epochs = 40;
  options.min_env_rows = 60;
  return options;
}

TEST(MethodNameTest, RoundTripsAllMethods) {
  for (Method m : AllMethods()) {
    EXPECT_EQ(*MethodFromName(MethodName(m)), m);
  }
}

TEST(MethodNameTest, DisplayNamesAreDistinct) {
  std::set<std::string> names;
  for (Method m : AllMethods()) names.insert(MethodName(m));
  EXPECT_EQ(names.size(), AllMethods().size());
}

TEST(MethodNameTest, AcceptsEverySnakeCaseAlias) {
  const std::vector<std::pair<std::string, Method>> aliases = {
      {"erm", Method::kErm},
      {"erm_fine_tune", Method::kErmFineTune},
      {"fine_tune", Method::kErmFineTune},
      {"up_sampling", Method::kUpSampling},
      {"upsampling", Method::kUpSampling},
      {"group_dro", Method::kGroupDro},
      {"vrex", Method::kVRex},
      {"v_rex", Method::kVRex},
      {"irmv1", Method::kIrmV1},
      {"irm_v1", Method::kIrmV1},
      {"meta_irm", Method::kMetaIrm},
      {"light_mirm", Method::kLightMirm},
      {"lightmirm", Method::kLightMirm},
  };
  for (const auto& [alias, method] : aliases) {
    const auto parsed = MethodFromName(alias);
    ASSERT_TRUE(parsed.ok()) << alias;
    EXPECT_EQ(*parsed, method) << alias;
  }
}

TEST(MethodNameTest, UnknownNameIsNotFound) {
  for (const char* name : {"alchemy", "", "ERM ", "light-mirm"}) {
    const auto parsed = MethodFromName(name);
    ASSERT_FALSE(parsed.ok()) << name;
    EXPECT_EQ(parsed.status().code(), StatusCode::kNotFound) << name;
  }
}

TEST(MakeTrainerTest, BuildsEveryMethod) {
  const GbdtLrOptions options = FastOptions();
  for (Method m : AllMethods()) {
    auto trainer = MakeTrainer(m, options);
    ASSERT_TRUE(trainer.ok()) << MethodName(m);
    EXPECT_FALSE((*trainer)->Name().empty());
  }
}

TEST(GbdtLrModelTest, TrainPredictEndToEnd) {
  const data::Dataset train = SmallTrainSet();
  const auto model = GbdtLrModel::Train(train, Method::kErm, FastOptions());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  const auto scores = *model->Predict(train);
  ASSERT_EQ(scores.size(), train.NumRows());
  for (double s : scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
  // In-sample discrimination must be well above chance.
  const auto pooled = *metrics::EvaluatePooled(train.labels(), scores);
  EXPECT_GT(pooled.auc, 0.7);
}

TEST(GbdtLrModelTest, SharedBoosterAcrossMethods) {
  const data::Dataset train = SmallTrainSet();
  const GbdtLrOptions options = FastOptions();
  auto booster = std::make_shared<const gbdt::Booster>(*gbdt::Booster::Train(
      train.features(), train.labels(), options.booster));
  const auto erm =
      GbdtLrModel::TrainWithBooster(booster, train, Method::kErm, options);
  const auto vrex =
      GbdtLrModel::TrainWithBooster(booster, train, Method::kVRex, options);
  ASSERT_TRUE(erm.ok());
  ASSERT_TRUE(vrex.ok());
  EXPECT_EQ(&erm->booster(), booster.get());
  EXPECT_EQ(&vrex->booster(), booster.get());
}

TEST(GbdtLrModelTest, RejectsNullBooster) {
  const data::Dataset train = SmallTrainSet();
  EXPECT_FALSE(GbdtLrModel::TrainWithBooster(nullptr, train, Method::kErm,
                                             FastOptions())
                   .ok());
}

TEST(GbdtLrModelTest, RawFeatureAblation) {
  const data::Dataset train = SmallTrainSet();
  GbdtLrOptions options = FastOptions();
  options.use_raw_features = true;
  const auto model = GbdtLrModel::Train(train, Method::kErm, options);
  ASSERT_TRUE(model.ok());
  const auto features = *model->EncodeFeatures(train);
  EXPECT_TRUE(features.dense_mode());
  EXPECT_EQ(features.cols(), train.NumFeatures());
}

TEST(GbdtLrModelTest, LeafEncodingShape) {
  const data::Dataset train = SmallTrainSet();
  const auto model = GbdtLrModel::Train(train, Method::kErm, FastOptions());
  ASSERT_TRUE(model.ok());
  const auto features = *model->EncodeFeatures(train);
  EXPECT_FALSE(features.dense_mode());
  EXPECT_EQ(features.cols(),
            static_cast<size_t>(model->booster().TotalLeaves()));
  EXPECT_DOUBLE_EQ(features.MeanRowNnz(),
                   static_cast<double>(model->booster().trees().size()));
}

TEST(GbdtLrModelTest, CompilesServingSessionForLeafModels) {
  const data::Dataset train = SmallTrainSet();
  const auto model = GbdtLrModel::Train(train, Method::kErm, FastOptions());
  ASSERT_TRUE(model.ok());
  ASSERT_NE(model->scoring_session(), nullptr);
  EXPECT_EQ(model->scoring_session()->forest().num_columns(),
            static_cast<size_t>(model->booster().TotalLeaves()));

  GbdtLrOptions raw_options = FastOptions();
  raw_options.use_raw_features = true;
  const auto raw_model =
      GbdtLrModel::Train(train, Method::kErm, raw_options);
  ASSERT_TRUE(raw_model.ok());
  EXPECT_EQ(raw_model->scoring_session(), nullptr);
}

TEST(GbdtLrModelTest, PredictRejectsNarrowDataset) {
  const data::Dataset train = SmallTrainSet();
  const auto model = GbdtLrModel::Train(train, Method::kErm, FastOptions());
  ASSERT_TRUE(model.ok());
  const size_t need = model->booster().MinFeatureCount();
  ASSERT_GT(need, 1u);
  // A dataset narrower than the booster's trained feature count must be
  // rejected, not read out of bounds (compiled and legacy encode paths).
  const size_t n = 6;
  const data::Dataset narrow(data::Schema{}, Matrix(n, need - 1),
                             std::vector<int>(n, 0),
                             std::vector<int>(n, 0),
                             std::vector<int>(n, 2016),
                             std::vector<int>(n, 1));
  const auto scores = model->Predict(narrow);
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kInvalidArgument);
  const auto encoded = model->EncodeFeatures(narrow);
  ASSERT_FALSE(encoded.ok());
  EXPECT_EQ(encoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(GbdtLrModelTest, RawPredictRejectsWidthMismatch) {
  const data::Dataset train = SmallTrainSet();
  GbdtLrOptions options = FastOptions();
  options.use_raw_features = true;
  const auto model = GbdtLrModel::Train(train, Method::kErm, options);
  ASSERT_TRUE(model.ok());
  const size_t n = 6;
  const data::Dataset narrow(data::Schema{},
                             Matrix(n, train.NumFeatures() - 1),
                             std::vector<int>(n, 0),
                             std::vector<int>(n, 0),
                             std::vector<int>(n, 2016),
                             std::vector<int>(n, 1));
  const auto scores = model->Predict(narrow);
  ASSERT_FALSE(scores.ok());
  EXPECT_EQ(scores.status().code(), StatusCode::kInvalidArgument);
}

TEST(GbdtLrModelTest, FineTuneProducesPerEnvModels) {
  const data::Dataset train = SmallTrainSet();
  const auto model =
      GbdtLrModel::Train(train, Method::kErmFineTune, FastOptions());
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->predictor().per_env.size(), 5u);
}

TEST(GbdtLrModelTest, ValidationFractionZeroDisablesSnapshot) {
  const data::Dataset train = SmallTrainSet();
  GbdtLrOptions options = FastOptions();
  options.validation_fraction = 0.0;
  EXPECT_TRUE(GbdtLrModel::Train(train, Method::kErm, options).ok());
}

}  // namespace
}  // namespace lightmirm::core
