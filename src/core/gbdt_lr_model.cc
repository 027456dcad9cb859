#include "core/gbdt_lr_model.h"

#include <algorithm>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "metrics/ks.h"
#include "obs/metrics.h"
#include "train/erm.h"

namespace lightmirm::core {

std::string MethodName(Method method) {
  switch (method) {
    case Method::kErm:
      return "ERM";
    case Method::kErmFineTune:
      return "ERM + fine-tuning";
    case Method::kUpSampling:
      return "Up Sampling";
    case Method::kGroupDro:
      return "Group DRO";
    case Method::kVRex:
      return "V-REx";
    case Method::kIrmV1:
      return "IRMv1";
    case Method::kMetaIrm:
      return "meta-IRM";
    case Method::kLightMirm:
      return "LightMIRM";
  }
  return "unknown";
}

Result<Method> MethodFromName(const std::string& name) {
  for (Method m : AllMethods()) {
    if (MethodName(m) == name) return m;
  }
  if (name == "erm") return Method::kErm;
  if (name == "erm_fine_tune" || name == "fine_tune") {
    return Method::kErmFineTune;
  }
  if (name == "up_sampling" || name == "upsampling") {
    return Method::kUpSampling;
  }
  if (name == "group_dro") return Method::kGroupDro;
  if (name == "vrex" || name == "v_rex") return Method::kVRex;
  if (name == "irmv1" || name == "irm_v1") return Method::kIrmV1;
  if (name == "meta_irm") return Method::kMetaIrm;
  if (name == "light_mirm" || name == "lightmirm") return Method::kLightMirm;
  return Status::NotFound("unknown method: " + name);
}

std::string TrainMetricsPrefix(Method method) {
  return "train." + obs::SanitizeMetricName(MethodName(method)) + ".";
}

const std::vector<Method>& AllMethods() {
  static const std::vector<Method> methods = {
      Method::kErm,     Method::kErmFineTune, Method::kUpSampling,
      Method::kGroupDro, Method::kVRex,       Method::kIrmV1,
      Method::kMetaIrm, Method::kLightMirm,
  };
  return methods;
}

Result<std::unique_ptr<train::Trainer>> MakeTrainer(
    Method method, const GbdtLrOptions& options) {
  using std::make_unique;
  switch (method) {
    case Method::kErm:
      return {make_unique<train::ErmTrainer>(options.trainer)};
    case Method::kErmFineTune:
      return {make_unique<train::FineTuneTrainer>(options.trainer,
                                                  options.fine_tune)};
    case Method::kUpSampling:
      return {make_unique<train::UpSamplingTrainer>(options.trainer,
                                                    options.up_sampling)};
    case Method::kGroupDro:
      return {make_unique<train::GroupDroTrainer>(options.trainer,
                                                  options.group_dro)};
    case Method::kVRex:
      return {make_unique<train::VRexTrainer>(options.trainer, options.vrex)};
    case Method::kIrmV1:
      return {make_unique<train::IrmV1Trainer>(options.trainer,
                                               options.irmv1)};
    case Method::kMetaIrm:
      return {make_unique<train::MetaIrmTrainer>(options.trainer,
                                                 options.meta_irm)};
    case Method::kLightMirm:
      return {make_unique<train::LightMirmTrainer>(options.trainer,
                                                   options.light_mirm)};
  }
  return Status::InvalidArgument("unknown method enum value");
}

Result<GbdtLrModel> GbdtLrModel::Train(const data::Dataset& train,
                                       Method method,
                                       const GbdtLrOptions& options) {
  ScopedDefaultThreads threads_guard(options.trainer.threads);
  LIGHTMIRM_ASSIGN_OR_RETURN(
      gbdt::Booster booster,
      gbdt::Booster::Train(train.features(), train.labels(),
                           options.booster));
  return TrainWithBooster(
      std::make_shared<const gbdt::Booster>(std::move(booster)), train,
      method, options);
}

Result<GbdtLrModel> GbdtLrModel::TrainWithBooster(
    std::shared_ptr<const gbdt::Booster> booster, const data::Dataset& train,
    Method method, const GbdtLrOptions& options) {
  if (booster == nullptr) {
    return Status::InvalidArgument("booster must be non-null");
  }
  ScopedDefaultThreads threads_guard(options.trainer.threads);
  GbdtLrModel model;
  model.method_ = method;
  model.booster_ = std::move(booster);
  model.encoder_ = std::make_unique<gbdt::LeafEncoder>(model.booster_.get());
  model.use_raw_features_ = options.use_raw_features;

  GbdtLrOptions run_options = options;
  // Default telemetry sink: the global registry under the method's prefix.
  // Callers that pass an explicit registry (or disable telemetry) win.
  if (run_options.trainer.metrics == nullptr && obs::TelemetryEnabled()) {
    run_options.trainer.metrics = obs::MetricsRegistry::Global();
  }
  if (run_options.trainer.metrics != nullptr &&
      run_options.trainer.metrics_prefix.empty()) {
    run_options.trainer.metrics_prefix = TrainMetricsPrefix(method);
  }

  // "transforming the format": raw features -> multi-hot leaf encoding.
  linear::FeatureMatrix features;
  {
    train::StepSpan scope(train::StepTelemetry::From(run_options.trainer),
                          "transforming the format");
    LIGHTMIRM_ASSIGN_OR_RETURN(features, model.EncodeFeatures(train));
  }

  // Optional held-out validation split for best-epoch selection.
  std::vector<size_t> train_rows, val_rows;
  std::vector<int> val_labels;
  if (options.validation_fraction > 0.0 &&
      options.validation_fraction < 1.0) {
    std::vector<size_t> order = linear::AllRows(features.rows());
    Rng rng(options.validation_seed);
    rng.Shuffle(&order);
    const size_t n_val = static_cast<size_t>(options.validation_fraction *
                                             static_cast<double>(order.size()));
    val_rows.assign(order.begin(), order.begin() + n_val);
    train_rows.assign(order.begin() + n_val, order.end());
    std::sort(val_rows.begin(), val_rows.end());
    std::sort(train_rows.begin(), train_rows.end());
    val_labels.reserve(val_rows.size());
    for (size_t r : val_rows) val_labels.push_back(train.labels()[r]);
    run_options.trainer.validation_fn =
        [&features, &val_rows, &val_labels](
            const linear::LogisticModel& candidate) {
          const std::vector<double> scores =
              candidate.PredictRows(features, val_rows);
          auto ks = metrics::KsStatistic(val_labels, scores);
          return ks.ok() ? *ks : 0.0;
        };
  }

  LIGHTMIRM_ASSIGN_OR_RETURN(
      train::TrainData train_data,
      train::TrainData::Create(&features, &train.labels(), &train.envs(),
                               run_options.min_env_rows, nullptr,
                               val_rows.empty() ? nullptr : &train_rows));
  LIGHTMIRM_ASSIGN_OR_RETURN(std::unique_ptr<train::Trainer> trainer,
                             MakeTrainer(method, run_options));
  LIGHTMIRM_ASSIGN_OR_RETURN(model.predictor_, trainer->Fit(train_data));
  LIGHTMIRM_RETURN_NOT_OK(model.CompileForServing());
  if (options.capture_score_reference) {
    LIGHTMIRM_RETURN_NOT_OK(model.CaptureScoreReference(
        train, options.score_reference_bins));
  }
  return model;
}

Result<GbdtLrModel> GbdtLrModel::FromParts(
    std::shared_ptr<const gbdt::Booster> booster,
    train::TrainedPredictor predictor, Method method,
    bool use_raw_features) {
  if (booster == nullptr) {
    return Status::InvalidArgument("booster must be non-null");
  }
  GbdtLrModel model;
  model.method_ = method;
  model.booster_ = std::move(booster);
  model.encoder_ = std::make_unique<gbdt::LeafEncoder>(model.booster_.get());
  model.predictor_ = std::move(predictor);
  model.use_raw_features_ = use_raw_features;
  LIGHTMIRM_RETURN_NOT_OK(model.CompileForServing());
  return model;
}

Status GbdtLrModel::CompileForServing() {
  // The raw-feature ablation feeds dense rows straight into the LR head;
  // there is no leaf encoding to compile.
  if (use_raw_features_) return Status::OK();
  LIGHTMIRM_ASSIGN_OR_RETURN(serve::ScoringSession session,
                             serve::ScoringSession::Create(*booster_,
                                                           predictor_));
  session_ =
      std::make_shared<const serve::ScoringSession>(std::move(session));
  return Status::OK();
}

Status GbdtLrModel::CaptureScoreReference(const data::Dataset& train,
                                          int num_bins) {
  // One extra scoring pass over the training data through the serving
  // path; the reference must describe the scores deployment will see.
  LIGHTMIRM_ASSIGN_OR_RETURN(const std::vector<double> scores,
                             Predict(train));
  LIGHTMIRM_ASSIGN_OR_RETURN(
      score_reference_,
      obs::BuildScoreReference(scores, train.labels(), train.envs(),
                               num_bins, /*min_env_rows=*/100,
                               train.env_names()));
  return Status::OK();
}

Result<std::shared_ptr<obs::ModelHealthMonitor>> GbdtLrModel::StartMonitoring(
    const obs::MonitorOptions& options) const {
  LIGHTMIRM_ASSIGN_OR_RETURN(
      std::unique_ptr<obs::ModelHealthMonitor> monitor,
      obs::ModelHealthMonitor::Create(score_reference_, options));
  std::shared_ptr<obs::ModelHealthMonitor> shared = std::move(monitor);
  // Double-start is an error now that attachment is exclusive: the caller
  // must DetachMonitor() the session's current monitor first.
  if (session_ != nullptr) {
    LIGHTMIRM_RETURN_NOT_OK(session_->AttachMonitor(shared));
  }
  return shared;
}

Result<linear::FeatureMatrix> GbdtLrModel::EncodeFeatures(
    const data::Dataset& dataset) const {
  if (use_raw_features_) {
    return linear::FeatureMatrix::FromDense(dataset.features());
  }
  return encoder_->Encode(dataset.features());
}

Result<std::vector<double>> GbdtLrModel::Predict(
    const data::Dataset& dataset) const {
  if (use_raw_features_) {
    if (dataset.NumFeatures() != predictor_.global.num_features()) {
      return Status::InvalidArgument(
          StrFormat("dataset has %zu features but the LR head was trained "
                    "on %zu",
                    dataset.NumFeatures(),
                    predictor_.global.num_features()));
    }
    LIGHTMIRM_ASSIGN_OR_RETURN(const linear::FeatureMatrix features,
                               EncodeFeatures(dataset));
    return predictor_.Predict(features, &dataset.envs());
  }
  return session_->Score(dataset.features(), &dataset.envs());
}

}  // namespace lightmirm::core
