#include "core/model_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <clocale>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "data/loan_generator.h"
#include "gbdt/serialize.h"

namespace lightmirm::core {
namespace {

GbdtLrModel TrainSmallModel(Method method) {
  data::LoanGeneratorOptions gen;
  gen.rows_per_year = 1000;
  gen.last_year = 2018;
  gen.seed = 11;
  const data::Dataset train = *data::LoanGenerator(gen).Generate();
  GbdtLrOptions options;
  options.booster.num_trees = 8;
  options.booster.tree.max_leaves = 5;
  options.trainer.epochs = 20;
  options.min_env_rows = 40;
  return std::move(GbdtLrModel::Train(train, method, options)).value();
}

TEST(ModelIoTest, RoundTripPreservesScores) {
  const GbdtLrModel original = TrainSmallModel(Method::kLightMirm);
  std::stringstream buffer;
  ASSERT_TRUE(SaveModel(original, &buffer).ok());
  const GbdtLrModel loaded = std::move(LoadModel(&buffer)).value();
  EXPECT_EQ(loaded.method(), Method::kLightMirm);

  data::LoanGeneratorOptions gen;
  gen.rows_per_year = 400;
  gen.last_year = 2018;
  gen.seed = 12;
  const data::Dataset fresh = *data::LoanGenerator(gen).Generate();
  const auto a = *original.Predict(fresh);
  const auto b = *loaded.Predict(fresh);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i += 13) {
    EXPECT_DOUBLE_EQ(a[i], b[i]);
  }
}

TEST(ModelIoTest, RoundTripPreservesPerEnvOverrides) {
  const GbdtLrModel original = TrainSmallModel(Method::kErmFineTune);
  ASSERT_GT(original.predictor().per_env.size(), 0u);
  std::stringstream buffer;
  ASSERT_TRUE(SaveModel(original, &buffer).ok());
  const GbdtLrModel loaded = std::move(LoadModel(&buffer)).value();
  EXPECT_EQ(loaded.predictor().per_env.size(),
            original.predictor().per_env.size());
  for (const auto& [env, lr_model] : original.predictor().per_env) {
    const auto it = loaded.predictor().per_env.find(env);
    ASSERT_NE(it, loaded.predictor().per_env.end());
    for (size_t j = 0; j < lr_model.params().size(); ++j) {
      EXPECT_DOUBLE_EQ(it->second.params()[j], lr_model.params()[j]);
    }
  }
}

TEST(ModelIoTest, FileRoundTrip) {
  const std::string path = std::string(::testing::TempDir()) + "/model.txt";
  const GbdtLrModel original = TrainSmallModel(Method::kErm);
  ASSERT_TRUE(SaveModelToFile(original, path).ok());
  const auto loaded = LoadModelFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->method(), Method::kErm);
}

TEST(ModelIoTest, LoadedModelScoresThroughCompiledPathBitIdentically) {
  const GbdtLrModel original = TrainSmallModel(Method::kErmFineTune);
  std::stringstream buffer;
  ASSERT_TRUE(SaveModel(original, &buffer).ok());
  const GbdtLrModel loaded = std::move(LoadModel(&buffer)).value();
  ASSERT_NE(loaded.scoring_session(), nullptr);

  data::LoanGeneratorOptions gen;
  gen.rows_per_year = 400;
  gen.last_year = 2018;
  gen.seed = 12;
  const data::Dataset fresh = *data::LoanGenerator(gen).Generate();
  // Legacy encode-then-dot on the original vs the loaded model's compiled
  // session: the round trip must preserve every score bit.
  const linear::FeatureMatrix encoded = *original.EncodeFeatures(fresh);
  const std::vector<double> legacy =
      original.predictor().Predict(encoded, &fresh.envs());
  const auto compiled =
      loaded.scoring_session()->Score(fresh.features(), &fresh.envs());
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(legacy, *compiled);
}

TEST(ModelIoTest, RoundTripPreservesScoreReference) {
  const GbdtLrModel original = TrainSmallModel(Method::kErm);
  ASSERT_FALSE(original.score_reference().empty());
  std::stringstream buffer;
  ASSERT_TRUE(SaveModel(original, &buffer).ok());
  const GbdtLrModel loaded = std::move(LoadModel(&buffer)).value();
  const obs::ScoreReference& a = original.score_reference();
  const obs::ScoreReference& b = loaded.score_reference();
  EXPECT_EQ(b.num_bins, a.num_bins);
  EXPECT_EQ(b.global.counts, a.global.counts);
  EXPECT_EQ(b.global.positives, a.global.positives);
  ASSERT_EQ(b.per_env.size(), a.per_env.size());
  for (const auto& [env, bins] : a.per_env) {
    ASSERT_EQ(b.per_env.count(env), 1u);
    EXPECT_EQ(b.per_env.at(env).counts, bins.counts);
  }
  EXPECT_EQ(b.env_names, a.env_names);
  // The loaded model can start monitoring directly.
  EXPECT_TRUE(loaded.StartMonitoring().ok());
}

// Model files persisted before score references existed end right after
// the booster; loading them must succeed with an empty reference.
TEST(ModelIoTest, LoadsPreReferenceModelFiles) {
  const GbdtLrModel original = TrainSmallModel(Method::kErm);
  std::stringstream buffer;
  ASSERT_TRUE(SaveModel(original, &buffer).ok());
  std::string text = buffer.str();
  const size_t start = text.find("score_reference ");
  ASSERT_NE(start, std::string::npos);
  text.resize(start);  // strip the trailing reference section
  std::stringstream legacy(text);
  const auto loaded = LoadModel(&legacy);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->score_reference().empty());
  EXPECT_FALSE(loaded->StartMonitoring().ok());  // nothing to monitor against
}

TEST(ModelIoTest, RejectsLrTableNarrowerThanLeafColumns) {
  const GbdtLrModel original = TrainSmallModel(Method::kErm);
  std::stringstream buffer;
  ASSERT_TRUE(SaveModel(original, &buffer).ok());
  std::string text = buffer.str();
  // Swap the global LR table for a well-formed but mis-sized one.
  const size_t start = text.find("global ");
  ASSERT_NE(start, std::string::npos);
  const size_t end = text.find('\n', start);
  text.replace(start, end - start, "global 3 0.1 0.2 0.3");
  std::stringstream corrupted(text);
  const auto loaded = LoadModel(&corrupted);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ModelIoTest, RejectsBadHeader) {
  std::stringstream buffer("garbage\n");
  EXPECT_FALSE(LoadModel(&buffer).ok());
}

TEST(ModelIoTest, RejectsTruncatedModel) {
  const GbdtLrModel original = TrainSmallModel(Method::kErm);
  std::stringstream buffer;
  ASSERT_TRUE(SaveModel(original, &buffer).ok());
  std::string text = buffer.str();
  text.resize(text.size() / 3);
  std::stringstream truncated(text);
  EXPECT_FALSE(LoadModel(&truncated).ok());
}

// Parse failures must say which section died and where, not just "parse
// error": a reference block cut off mid-way names `score_reference` and a
// line at (or just past) the truncation point.
TEST(ModelIoTest, TruncatedReferenceNamesSectionAndLine) {
  const GbdtLrModel original = TrainSmallModel(Method::kErm);
  std::stringstream buffer;
  ASSERT_TRUE(SaveModel(original, &buffer).ok());
  std::string text = buffer.str();
  const size_t start = text.find("score_reference ");
  ASSERT_NE(start, std::string::npos);
  const size_t header_end = text.find('\n', start);
  ASSERT_NE(header_end, std::string::npos);
  // Keep the section header, drop its body.
  text.resize(header_end + 1);
  const size_t expect_line =
      static_cast<size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
  std::stringstream truncated(text);
  const auto loaded = LoadModel(&truncated);
  ASSERT_FALSE(loaded.ok());
  const std::string& message = loaded.status().message();
  EXPECT_NE(message.find("section 'score_reference'"), std::string::npos)
      << message;
  EXPECT_NE(message.find("line " + std::to_string(expect_line)),
            std::string::npos)
      << message;
}

// The annotation covers every section, with the line pointing into the
// section's own territory — a corrupt booster must not be blamed on the
// header.
TEST(ModelIoTest, CorruptBoosterNamesSectionAndLine) {
  const GbdtLrModel original = TrainSmallModel(Method::kErm);
  std::stringstream buffer;
  ASSERT_TRUE(SaveModel(original, &buffer).ok());
  std::string text = buffer.str();
  const size_t booster_start = text.find("lightmirm-booster-v1");
  ASSERT_NE(booster_start, std::string::npos);
  text.resize(booster_start);
  text += "not a booster\n";
  std::stringstream corrupted(text);
  const auto loaded = LoadModel(&corrupted);
  ASSERT_FALSE(loaded.ok());
  const std::string& message = loaded.status().message();
  EXPECT_NE(message.find("section 'booster'"), std::string::npos) << message;
  EXPECT_NE(message.find("near line"), std::string::npos) << message;
}

TEST(ModelIoTest, MissingFileIsIoError) {
  auto r = LoadModelFromFile("/no/such/model.txt");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

// A 101-byte booster section whose one split reads feature INT_MAX, and a
// 100-byte one reading feature 300,000,000. Loading either through
// FromParts, the path LoadModel takes, must neither throw nor size a table
// by the feature id; a batch narrower than that feature is then an
// InvalidArgument.
TEST(ModelIoTest, HostileSplitFeatureReturnsStatus) {
  for (const std::string feature : {"2147483647", "300000000"}) {
    std::stringstream section("lightmirm-booster-v1\nbase_score 0\n"
                              "num_trees 1\ntree 3\nsplit " +
                              feature +
                              " 0.5 1 2\nleaf 0 0.1\nleaf 1 -0.1\n");
    const Result<gbdt::Booster> booster = gbdt::LoadBooster(&section);
    ASSERT_TRUE(booster.ok()) << booster.status().ToString();
    EXPECT_EQ(booster->MinFeatureCount(), std::stoull(feature) + 1);
    train::TrainedPredictor predictor;
    predictor.global = linear::LogisticModel(2);  // two leaf columns
    std::optional<Result<GbdtLrModel>> model;
    ASSERT_NO_THROW(model.emplace(GbdtLrModel::FromParts(
        std::make_shared<const gbdt::Booster>(*booster), predictor,
        Method::kErm, /*use_raw_features=*/false)))
        << "feature " << feature;
    ASSERT_TRUE(model->ok()) << model->status().ToString();
    const auto scores =
        (*model)->scoring_session()->Score(Matrix(2, 8), nullptr);
    ASSERT_FALSE(scores.ok());
    EXPECT_EQ(scores.status().code(), StatusCode::kInvalidArgument);
  }
}

// Scopes LC_NUMERIC to a comma-decimal locale (see the twin helper in
// common/string_util_test.cc; CI's Release job generates de_DE.UTF-8 so
// this runs there, locally it skips when the locale is absent).
class ScopedCommaLocale {
 public:
  ScopedCommaLocale() {
    const char* saved = std::setlocale(LC_NUMERIC, nullptr);
    saved_ = saved == nullptr ? "C" : saved;
    for (const char* name : {"de_DE.UTF-8", "de_DE.utf8", "de_DE"}) {
      if (std::setlocale(LC_NUMERIC, name) != nullptr) break;
    }
  }
  ~ScopedCommaLocale() { std::setlocale(LC_NUMERIC, saved_.c_str()); }

  bool active() const {
    return std::strcmp(std::localeconv()->decimal_point, ",") == 0;
  }

 private:
  std::string saved_;
};

// The end-to-end regression for the locale bugfix: a process running
// under a comma-decimal LC_NUMERIC must save byte-identical model files
// and load them back to bit-identical scores. Before the
// from_chars/to_chars switch, saving under de_DE wrote ','-decimal
// doubles and loading period-decimal files truncated every fraction.
TEST(ModelIoLocaleTest, RoundTripsByteAndBitIdenticalUnderCommaLocale) {
  const GbdtLrModel original = TrainSmallModel(Method::kLightMirm);
  std::stringstream c_locale_bytes;
  ASSERT_TRUE(SaveModel(original, &c_locale_bytes).ok());

  ScopedCommaLocale locale;
  if (!locale.active()) {
    GTEST_SKIP() << "no comma-decimal locale available (locale-gen "
                    "de_DE.UTF-8 to enable)";
  }
  std::stringstream comma_locale_bytes;
  ASSERT_TRUE(SaveModel(original, &comma_locale_bytes).ok());
  EXPECT_EQ(comma_locale_bytes.str(), c_locale_bytes.str());

  const auto loaded = LoadModel(&c_locale_bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  data::LoanGeneratorOptions gen;
  gen.rows_per_year = 400;
  gen.last_year = 2018;
  gen.seed = 12;
  const data::Dataset fresh = *data::LoanGenerator(gen).Generate();
  const auto a = *original.Predict(fresh);
  const auto b = *loaded->Predict(fresh);
  EXPECT_EQ(a, b);  // bit-identical, not approximately equal
}

}  // namespace
}  // namespace lightmirm::core
