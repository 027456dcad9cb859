#include "train/trainer.h"

#include <algorithm>
#include <cstdint>
#include <map>

#include "common/string_util.h"
#include "common/thread_pool.h"

namespace lightmirm::train {

namespace {

// Appends each epoch's trajectory points to the telemetry registry. Inert
// without a registry or series names; handles resolve once, so Record is
// cheap enough to call every epoch.
class TrajectoryRecorder {
 public:
  TrajectoryRecorder(const StepTelemetry& telemetry,
                     const std::vector<int>& env_ids, TrajectoryNames names) {
    if (telemetry.metrics == nullptr || names.loss == nullptr) return;
    env_series_.reserve(env_ids.size());
    for (int id : env_ids) {
      env_series_.push_back(telemetry.metrics->GetSeries(
          telemetry.prefix + names.loss + ".env_" + std::to_string(id)));
    }
    penalty_series_ =
        telemetry.metrics->GetSeries(telemetry.prefix + names.penalty);
  }

  void Record(const EpochGradient& step) const {
    if (penalty_series_ == nullptr) return;
    const size_t n = std::min(env_series_.size(), step.env_losses.size());
    for (size_t t = 0; t < n; ++t) env_series_[t]->Append(step.env_losses[t]);
    penalty_series_->Append(step.penalty);
  }

 private:
  std::vector<obs::Series*> env_series_;
  obs::Series* penalty_series_ = nullptr;
};

}  // namespace

Result<TrainedPredictor> FitByEpochs(const TrainerOptions& options,
                                     const TrainData& data, double l2,
                                     TrajectoryNames trajectories,
                                     const EpochGradientFn& gradient) {
  Rng rng(options.seed);
  linear::LogisticModel model = linear::LogisticModel::RandomInit(
      data.x->cols(), options.init_scale, &rng);
  LIGHTMIRM_ASSIGN_OR_RETURN(linear::Adam adam,
                             linear::Adam::Create(options.optimizer));
  const StepTelemetry telemetry = StepTelemetry::From(options);
  const TrajectoryRecorder recorder(telemetry, data.env_ids, trajectories);
  BestModelTracker tracker(&options);
  EpochGradient step;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    {
      StepSpan epoch_span(telemetry, kStepEpoch, "epoch");
      LIGHTMIRM_RETURN_NOT_OK(gradient(epoch, model.params(), &rng, &step));
      linear::AddL2(model.params(), l2, &step.grad);
      adam.Step(step.grad, &model.mutable_params());
    }
    recorder.Record(step);
    if (options.epoch_callback) options.epoch_callback(epoch, model);
    tracker.Observe(model);
  }
  tracker.Finalize(&model);
  TrainedPredictor predictor;
  predictor.global = std::move(model);
  return predictor;
}

Result<TrainData> TrainData::Create(const linear::FeatureMatrix* x,
                                    const std::vector<int>* labels,
                                    const std::vector<int>* envs,
                                    size_t min_env_rows,
                                    const std::vector<double>* weights,
                                    const std::vector<size_t>* include_rows) {
  if (x == nullptr || labels == nullptr || envs == nullptr) {
    return Status::InvalidArgument("x, labels and envs must be non-null");
  }
  const size_t n = x->rows();
  if (labels->size() != n || envs->size() != n) {
    return Status::InvalidArgument(
        StrFormat("size mismatch: x has %zu rows, labels %zu, envs %zu", n,
                  labels->size(), envs->size()));
  }
  if (weights != nullptr && weights->size() != n) {
    return Status::InvalidArgument("weights size mismatch");
  }
  for (int e : *envs) {
    if (e < 0) return Status::InvalidArgument("negative environment id");
  }
  std::vector<size_t> all_rows =
      include_rows == nullptr ? linear::AllRows(n) : *include_rows;
  if (all_rows.size() > UINT32_MAX) {
    return Status::InvalidArgument("more than 2^32 training rows");
  }
  // Grouped by the ids present, so a large id costs nothing; the map keeps
  // tasks in ascending env-id order.
  std::map<int, std::vector<size_t>> groups;
  for (size_t i : all_rows) {
    if (i >= n) return Status::OutOfRange("include_rows index out of range");
    groups[(*envs)[i]].push_back(i);
  }
  TrainData data;
  data.x = x;
  data.labels = labels;
  data.weights = weights;
  data.all_rows = std::move(all_rows);
  std::vector<std::vector<size_t>> lists;
  for (auto& [env, rows] : groups) {
    if (rows.size() >= min_env_rows) {
      lists.push_back(std::move(rows));
      data.env_ids.push_back(env);
    }
  }
  if (data.env_ids.empty()) {
    return Status::FailedPrecondition(StrFormat(
        "no environment has >= %zu rows", min_env_rows));
  }
  std::vector<linear::RowSet> sets(lists.size());
  ParallelFor(0, lists.size(), 1, [&](size_t s) {
    sets[s] = linear::RowSet(*x, std::move(lists[s]));
  });
  data.env_rows = std::move(sets);
  return data;
}

void BestModelTracker::Observe(const linear::LogisticModel& model) {
  if (!options_->validation_fn) return;
  const double score = options_->validation_fn(model);
  if (score > best_score_) {
    best_score_ = score;
    best_params_ = model.params();
  }
}

void BestModelTracker::Finalize(linear::LogisticModel* model) const {
  if (!best_params_.empty()) model->set_params(best_params_);
}

std::vector<double> TrainedPredictor::Predict(
    const linear::FeatureMatrix& x, const std::vector<int>* envs) const {
  std::vector<double> out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    const linear::LogisticModel* model = &global;
    if (envs != nullptr && !per_env.empty()) {
      const auto it = per_env.find((*envs)[r]);
      if (it != per_env.end()) model = &it->second;
    }
    out[r] = model->PredictRow(x, r);
  }
  return out;
}

}  // namespace lightmirm::train
