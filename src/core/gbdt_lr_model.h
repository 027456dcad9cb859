// GbdtLrModel — the paper's full loan-default prediction pipeline (Fig 2):
// a LightGBM-style booster performs automatic feature extraction (each tree
// contributes a one-hot leaf feature, §III-C), and a logistic-regression
// head on the multi-hot encoding is learned with one of the training
// paradigms (ERM family or the IRM family, §III-D/E).
#pragma once

#include <memory>
#include <string>

#include "common/result.h"
#include "common/timer.h"
#include "data/dataset.h"
#include "gbdt/booster.h"
#include "gbdt/leaf_encoder.h"
#include "obs/drift.h"
#include "obs/monitor.h"
#include "serve/scoring_session.h"
#include "train/fine_tune.h"
#include "train/group_dro.h"
#include "train/irmv1.h"
#include "train/light_mirm.h"
#include "train/meta_irm.h"
#include "train/trainer.h"
#include "train/up_sampling.h"
#include "train/vrex.h"

namespace lightmirm::core {

/// The training paradigms compared in the paper's evaluation.
enum class Method {
  kErm,
  kErmFineTune,
  kUpSampling,
  kGroupDro,
  kVRex,
  kIrmV1,
  kMetaIrm,
  kLightMirm,
};

/// Table-facing display name ("ERM", "LightMIRM", ...).
std::string MethodName(Method method);

/// Parses a method name (accepts the display names and lowercase slugs
/// like "light_mirm"). Errors on unknown names.
Result<Method> MethodFromName(const std::string& name);

/// All methods in Table I order.
const std::vector<Method>& AllMethods();

/// Canonical telemetry prefix for a method's training-run metrics, e.g.
/// "train.LightMIRM." or "train.meta_IRM." (see DESIGN.md "Observability").
std::string TrainMetricsPrefix(Method method);

/// Configuration for the full pipeline.
struct GbdtLrOptions {
  gbdt::BoosterOptions booster;
  train::TrainerOptions trainer;
  train::FineTuneOptions fine_tune;
  train::UpSamplingTrainerOptions up_sampling;
  train::GroupDroOptions group_dro;
  train::VRexOptions vrex;
  train::IrmV1Options irmv1;
  train::MetaIrmOptions meta_irm;
  train::LightMirmOptions light_mirm;
  /// Environments smaller than this do not get their own training task.
  size_t min_env_rows = 100;
  /// Fraction of training rows held out for best-epoch selection (pooled
  /// validation KS). 0 disables validation snapshotting.
  double validation_fraction = 0.15;
  uint64_t validation_seed = 1234;
  /// Ablation: feed raw features to the LR head instead of leaf features.
  bool use_raw_features = false;
  /// Capture a training-time score reference (per-province binned score
  /// histograms, obs/drift.h) after training, the baseline the online
  /// drift monitors compare against. Persisted by core/model_io.
  bool capture_score_reference = true;
  int score_reference_bins = 10;
};

/// Builds the trainer implementing `method` under `options`.
Result<std::unique_ptr<train::Trainer>> MakeTrainer(
    Method method, const GbdtLrOptions& options);

/// A trained pipeline: booster + leaf encoder + LR predictor.
class GbdtLrModel {
 public:
  /// Trains feature extraction and the LR head from scratch.
  static Result<GbdtLrModel> Train(const data::Dataset& train, Method method,
                                   const GbdtLrOptions& options);

  /// Trains the LR head on top of an existing booster, so several methods
  /// can share one feature extractor (as the paper's comparisons do).
  static Result<GbdtLrModel> TrainWithBooster(
      std::shared_ptr<const gbdt::Booster> booster,
      const data::Dataset& train, Method method,
      const GbdtLrOptions& options);

  /// Reassembles a model from persisted parts (see core/model_io.h).
  static Result<GbdtLrModel> FromParts(
      std::shared_ptr<const gbdt::Booster> booster,
      train::TrainedPredictor predictor, Method method,
      bool use_raw_features);

  /// Default probabilities for each row of `dataset`. Uses per-province
  /// model overrides when the method produced them (fine-tuning). Leaf
  /// models score through the compiled serving path (bit-identical to the
  /// legacy encode-then-dot path); the raw-feature ablation keeps the
  /// dense legacy path.
  Result<std::vector<double>> Predict(const data::Dataset& dataset) const;

  /// Encodes a dataset into the LR head's input representation. Training
  /// still needs the materialized FeatureMatrix; inference does not (see
  /// scoring_session()).
  Result<linear::FeatureMatrix> EncodeFeatures(
      const data::Dataset& dataset) const;

  const gbdt::Booster& booster() const { return *booster_; }
  const train::TrainedPredictor& predictor() const { return predictor_; }
  Method method() const { return method_; }
  bool use_raw_features() const { return use_raw_features_; }

  /// The batch scorer backing Predict (its forest() is the serving form
  /// of the booster); null for the raw-feature ablation, which has no leaf
  /// encoding to compile.
  std::shared_ptr<const serve::ScoringSession> scoring_session() const {
    return session_;
  }

  /// Training-time score reference captured at model build (empty when
  /// capture was disabled or the model predates references).
  const obs::ScoreReference& score_reference() const {
    return score_reference_;
  }
  void set_score_reference(obs::ScoreReference reference) {
    score_reference_ = std::move(reference);
  }

  /// Builds a ModelHealthMonitor from the captured reference and attaches
  /// it to the scoring session (when the model serves through one), so
  /// every subsequent Predict/Score feeds the drift monitors. Errors when
  /// no reference was captured.
  Result<std::shared_ptr<obs::ModelHealthMonitor>> StartMonitoring(
      const obs::MonitorOptions& options = {}) const;

 private:
  Status CompileForServing();
  Status CaptureScoreReference(const data::Dataset& train, int num_bins);

  std::shared_ptr<const gbdt::Booster> booster_;
  std::unique_ptr<gbdt::LeafEncoder> encoder_;
  train::TrainedPredictor predictor_;
  std::shared_ptr<const serve::ScoringSession> session_;
  obs::ScoreReference score_reference_;
  Method method_ = Method::kErm;
  bool use_raw_features_ = false;
};

}  // namespace lightmirm::core
