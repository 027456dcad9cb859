// The stack every workload drives, built through the library's public API:
// synthetic loan data from the workload seed, a LightMIRM model at the
// repository defaults (60 trees, 300 epochs, 8000 rows/year), and the
// sharded scoring service with its telemetry in a private registry.
//
// Training makes the two public calls GbdtLrModel::Train is made of
// (gbdt::Booster::Train, then GbdtLrModel::TrainWithBooster), in traced and
// untraced runs alike. Traced runs put a span around each and pass a
// StepTimer as TrainerOptions::timer, so the ledger splits training time
// without any tracing inside the library.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/timer.h"
#include "core/gbdt_lr_model.h"
#include "data/dataset.h"
#include "harness.h"
#include "obs/metrics.h"
#include "serve/service/sharded_service.h"

namespace perfbench {

inline constexpr int kRowsPerYear = 8000;
inline constexpr int kTestYear = 2020;
inline constexpr size_t kEvalMinRows = 80;  ///< ExperimentConfig default

/// One workload's generated inputs: 2016-2019 training rows and the 2020
/// rows the workloads score.
struct Inputs {
  lightmirm::data::Dataset train;
  lightmirm::data::Dataset test;
};

/// Generates the loan data of `seed` and splits it at 2020.
lightmirm::Result<Inputs> GenerateInputs(uint64_t seed, SpanRecorder* spans);

/// A trained LightMIRM model plus the booster an identical clone is rebuilt
/// from (GbdtLrModel is move-only; clones share the booster).
struct TrainedModel {
  lightmirm::core::GbdtLrModel model;
  std::shared_ptr<const lightmirm::gbdt::Booster> booster;
  /// Steps TrainWithBooster and the trainer recorded (traced runs only):
  /// "transforming the format" and the Table III steps.
  lightmirm::StepTimer steps;
};

/// Trains LightMIRM on `train`, recording trainer telemetry into
/// `registry`. With an enabled recorder, spans gbdt.train and
/// core.train_with_booster cover the two calls and `steps` is filled.
lightmirm::Result<TrainedModel> TrainModel(
    const lightmirm::data::Dataset& train,
    lightmirm::obs::MetricsRegistry* registry, SpanRecorder* spans);

/// A model with `source`'s exact parts (booster, LR head, reference),
/// compiled afresh through GbdtLrModel::FromParts (span core.compile).
lightmirm::Result<lightmirm::core::GbdtLrModel> CloneModel(
    const TrainedModel& source, SpanRecorder* spans);

/// Rebuilds the score reference TrainWithBooster captured for `model` from
/// the same calls (Predict over `train`, obs::BuildScoreReference), under
/// span core.score_reference.
lightmirm::Status RebuildScoreReference(
    const lightmirm::core::GbdtLrModel& model,
    const lightmirm::data::Dataset& train, SpanRecorder* spans);

/// Creates the sharded service at its shipped defaults, with rows of
/// `feature_width` values and telemetry in `registry`.
lightmirm::Result<std::unique_ptr<lightmirm::serve::ShardedScoringService>>
StartService(lightmirm::core::GbdtLrModel model, size_t feature_width,
             lightmirm::obs::MetricsRegistry* registry);

/// Builds an unlabeled request from rows of `set`: features and envs. Loan
/// ids are `id_base + i` for the i-th row.
lightmirm::serve::ScoreRequest BuildRequest(
    const lightmirm::data::Dataset& set, const uint32_t* rows, size_t count,
    int64_t id_base);

}  // namespace perfbench
