#include "pipeline.h"

#include <algorithm>

#include "common/thread_pool.h"
#include "data/env_split.h"
#include "data/loan_generator.h"
#include "obs/drift.h"

namespace perfbench {

using namespace lightmirm;

namespace {

core::GbdtLrOptions ModelOptions(obs::MetricsRegistry* registry) {
  core::GbdtLrOptions options;  // 60 trees, max 31 leaves
  options.trainer.epochs = 300;
  options.trainer.metrics = registry;
  options.trainer.metrics_prefix =
      core::TrainMetricsPrefix(core::Method::kLightMirm);
  return options;
}

}  // namespace

Result<Inputs> GenerateInputs(uint64_t seed, SpanRecorder* spans) {
  data::LoanGeneratorOptions options;
  options.seed = seed;
  options.rows_per_year = kRowsPerYear;
  Span span(spans, "data.generate");
  LIGHTMIRM_ASSIGN_OR_RETURN(data::Dataset full,
                             data::LoanGenerator(options).Generate());
  LIGHTMIRM_ASSIGN_OR_RETURN(data::Split split,
                             data::TemporalSplit(full, kTestYear));
  return Inputs{std::move(split.train), std::move(split.test)};
}

Result<TrainedModel> TrainModel(const data::Dataset& train,
                                obs::MetricsRegistry* registry,
                                SpanRecorder* spans) {
  core::GbdtLrOptions options = ModelOptions(registry);
  TrainedModel out;
  if (spans != nullptr && spans->enabled()) options.trainer.timer = &out.steps;
  ScopedDefaultThreads threads(options.trainer.threads);  // as Train does
  {
    Span span(spans, "gbdt.train");
    LIGHTMIRM_ASSIGN_OR_RETURN(
        gbdt::Booster booster,
        gbdt::Booster::Train(train.features(), train.labels(),
                             options.booster));
    out.booster = std::make_shared<const gbdt::Booster>(std::move(booster));
  }
  Span span(spans, "core.train_with_booster");
  LIGHTMIRM_ASSIGN_OR_RETURN(
      out.model,
      core::GbdtLrModel::TrainWithBooster(out.booster, train,
                                          core::Method::kLightMirm, options));
  return out;
}

Result<core::GbdtLrModel> CloneModel(const TrainedModel& source,
                                     SpanRecorder* spans) {
  Span span(spans, "core.compile");
  LIGHTMIRM_ASSIGN_OR_RETURN(
      core::GbdtLrModel clone,
      core::GbdtLrModel::FromParts(source.booster, source.model.predictor(),
                                   core::Method::kLightMirm,
                                   /*use_raw_features=*/false));
  clone.set_score_reference(source.model.score_reference());
  return clone;
}

Status RebuildScoreReference(const core::GbdtLrModel& model,
                             const data::Dataset& train, SpanRecorder* spans) {
  Span span(spans, "core.score_reference");
  LIGHTMIRM_ASSIGN_OR_RETURN(const std::vector<double> scores,
                             model.Predict(train));
  return obs::BuildScoreReference(scores, train.labels(), train.envs(),
                                  core::GbdtLrOptions().score_reference_bins,
                                  /*min_env_rows=*/100, train.env_names())
      .status();
}

Result<std::unique_ptr<serve::ShardedScoringService>> StartService(
    core::GbdtLrModel model, size_t feature_width,
    obs::MetricsRegistry* registry) {
  serve::ServiceOptions options;
  options.dispatcher.feature_width = feature_width;
  options.telemetry_registry = registry;
  return serve::ShardedScoringService::Create(std::move(model), options);
}

serve::ScoreRequest BuildRequest(const data::Dataset& set,
                                 const uint32_t* rows, size_t count,
                                 int64_t id_base) {
  serve::ScoreRequest request;
  const size_t width = set.NumFeatures();
  request.loan_ids.resize(count);
  request.features.resize(count * width);
  request.envs.resize(count);
  for (size_t i = 0; i < count; ++i) {
    const size_t row = rows[i];
    request.loan_ids[i] = id_base + static_cast<int64_t>(i);
    std::copy_n(set.features().Row(row), width,
                request.features.data() + i * width);
    request.envs[i] = set.envs()[row];
  }
  return request;
}

}  // namespace perfbench
