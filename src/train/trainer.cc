#include "train/trainer.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "train/meta_irm.h"

namespace lightmirm::train {

MetaTrajectoryRecorder::MetaTrajectoryRecorder(const StepTelemetry& telemetry,
                                               const std::vector<int>& env_ids,
                                               const char* loss_name,
                                               const char* penalty_name) {
  if (telemetry.metrics == nullptr) return;
  env_series_.reserve(env_ids.size());
  for (int id : env_ids) {
    env_series_.push_back(telemetry.metrics->GetSeries(
        telemetry.prefix + loss_name + ".env_" + std::to_string(id)));
  }
  penalty_series_ =
      telemetry.metrics->GetSeries(telemetry.prefix + penalty_name);
}

void MetaTrajectoryRecorder::Record(
    const std::vector<double>& env_losses) const {
  Record(env_losses, PopulationStdDev(env_losses));
}

void MetaTrajectoryRecorder::Record(const std::vector<double>& env_losses,
                                    double penalty) const {
  if (penalty_series_ == nullptr) return;
  const size_t n = std::min(env_series_.size(), env_losses.size());
  for (size_t t = 0; t < n; ++t) env_series_[t]->Append(env_losses[t]);
  penalty_series_->Append(penalty);
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
  // The pooled rows come first: the largest set starts indexing first.
  std::vector<std::vector<size_t>> lists;
  lists.push_back(std::move(all_rows));
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
  data.all_rows = std::move(sets[0]);
  data.env_rows.assign(std::make_move_iterator(sets.begin() + 1),
                       std::make_move_iterator(sets.end()));
  return data;
}

bool BestModelTracker::Observe(const linear::LogisticModel& model) {
  if (!options_->validation_fn) return true;
  const double score = options_->validation_fn(model);
  if (score > best_score_) {
    best_score_ = score;
    best_params_ = model.params();
    since_best_ = 0;
  } else {
    ++since_best_;
    if (options_->early_stop_patience > 0 &&
        since_best_ >= options_->early_stop_patience) {
      return false;
    }
  }
  return true;
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
