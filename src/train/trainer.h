// Trainer interface shared by every learning algorithm in the paper's
// evaluation: ERM, ERM+fine-tuning, Up-sampling, Group DRO, V-REx, IRMv1,
// meta-IRM (full and sampled) and LightMIRM.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/timer.h"
#include "linear/loss.h"
#include "linear/optimizer.h"
#include "obs/trace.h"

namespace lightmirm::train {

/// Training inputs grouped by environment. Holds row sets over a shared
/// design matrix so per-environment losses never copy features; each task's
/// row set carries the column index the gradient kernels sum along.
struct TrainData {
  const linear::FeatureMatrix* x = nullptr;
  const std::vector<int>* labels = nullptr;
  /// Optional per-row weights (class re-balancing); nullptr = all ones.
  const std::vector<double>* weights = nullptr;

  /// env_rows[t] are the rows of task (environment) t; env_ids[t] is the
  /// original environment id of task t, ascending in t. Only environments
  /// with at least `min_env_rows` rows become tasks; smaller ones are
  /// folded into the pooled rows but not given their own task.
  std::vector<linear::RowSet> env_rows;
  std::vector<int> env_ids;
  /// Every training row, unindexed: only the pooled ERM fit reads them,
  /// and it builds its own RowSet.
  std::vector<size_t> all_rows;

  /// Number of tasks M.
  size_t NumTasks() const { return env_rows.size(); }

  /// Builds the per-environment grouping and indexes every task's row set,
  /// the sets in parallel. Errors if no environment reaches `min_env_rows` or
  /// inputs are inconsistent. If `include_rows` is non-null only those
  /// rows participate in training (the rest are e.g. a held-out validation
  /// set), in that order.
  static Result<TrainData> Create(const linear::FeatureMatrix* x,
                                  const std::vector<int>* labels,
                                  const std::vector<int>* envs,
                                  size_t min_env_rows = 50,
                                  const std::vector<double>* weights = nullptr,
                                  const std::vector<size_t>* include_rows = nullptr);

  /// LossContext over this data.
  linear::LossContext Context() const {
    return linear::LossContext{x, labels, weights};
  }
};

/// The result of training: a global LR model plus optional per-environment
/// overrides (used by the fine-tuning baseline).
struct TrainedPredictor {
  linear::LogisticModel global;
  std::map<int, linear::LogisticModel> per_env;

  /// Scores rows of `x`; row i uses the override for envs[i] when present,
  /// the global model otherwise. Pass envs = nullptr to force global.
  std::vector<double> Predict(const linear::FeatureMatrix& x,
                              const std::vector<int>* envs) const;
};

/// Invoked after each outer-loop epoch with the current parameters; used by
/// the benches that trace KS-vs-epoch training curves (Fig 6 / Fig 8).
using EpochCallback =
    std::function<void(int epoch, const linear::LogisticModel& model)>;

/// Scores a candidate model on held-out data (higher is better); used for
/// best-epoch snapshotting (the "stop condition" of Algorithms 1/2).
using ValidationFn = std::function<double(const linear::LogisticModel&)>;

/// Options shared by all trainers.
struct TrainerOptions {
  int epochs = 60;
  double l2 = 1e-4;
  uint64_t seed = 7;
  double init_scale = 0.01;
  /// Worker threads for the parallel training loops (environment-parallel
  /// meta-task losses, histogram builds, ...). 0 keeps the ambient default
  /// (hardware concurrency); 1 forces serial execution. Results are
  /// identical at any value — see DESIGN.md "Threading model".
  int threads = 0;
  linear::OptimizerOptions optimizer;
  /// Optional per-step timing sink (Table III); not owned.
  StepTimer* timer = nullptr;
  /// Optional telemetry sink: per-step trace spans and per-environment
  /// meta-loss / penalty trajectories record here (see DESIGN.md
  /// "Observability"). Not owned; nullptr disables telemetry.
  obs::MetricsRegistry* metrics = nullptr;
  /// Metric-name prefix for this training run's telemetry, e.g.
  /// "train.LightMIRM.".
  std::string metrics_prefix;
  /// Optional per-epoch hook.
  EpochCallback epoch_callback;
  /// Optional validation scorer. When set, training returns the parameters
  /// of the best-scoring epoch instead of the last one.
  ValidationFn validation_fn;
};

/// Tracks the best-validation parameters across epochs. When no validation
/// function is configured it is a no-op and Finalize keeps the last model.
class BestModelTracker {
 public:
  explicit BestModelTracker(const TrainerOptions* options)
      : options_(options) {}

  /// Scores `model` (if validation is configured) and snapshots it when it
  /// improves.
  void Observe(const linear::LogisticModel& model);

  /// Replaces `model` with the best snapshot (if any).
  void Finalize(linear::LogisticModel* model) const;

  double best_score() const { return best_score_; }

 private:
  const TrainerOptions* options_;
  double best_score_ = -1e300;
  linear::ParamVec best_params_;
};

/// Canonical step names recorded into TrainerOptions::timer, matching the
/// rows of Table III.
inline constexpr const char* kStepInnerOptimization = "inner optimization";
inline constexpr const char* kStepMetaLosses = "calculating the meta-losses";
inline constexpr const char* kStepBackward = "backward propagation";
inline constexpr const char* kStepEpoch = "the whole epoch";

/// Telemetry wiring shared by the per-step scopes: the legacy Table III
/// StepTimer plus the optional registry that trace spans and trajectory
/// series record into. Copies of TrainerOptions' sinks, cheap to pass
/// around; all pointers optional and unowned.
struct StepTelemetry {
  StepTimer* timer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  std::string prefix;

  static StepTelemetry From(const TrainerOptions& options) {
    return {options.timer, options.metrics, options.metrics_prefix};
  }
};

/// RAII scope recording one training step into both sinks: the StepTimer
/// keeps feeding the Table III formatter exactly as before, and the trace
/// span nests under the thread's active span chain in the registry
/// (root spans get the run's metric prefix). Either sink may be null.
class StepSpan {
 public:
  /// `span_name` overrides the span segment (e.g. "epoch" instead of
  /// "the whole epoch"); the StepTimer always records under `step_name`.
  StepSpan(const StepTelemetry& telemetry, const char* step_name,
           const char* span_name = nullptr)
      : timer_(telemetry.timer),
        step_name_(step_name),
        span_(telemetry.metrics,
              obs::TraceSpan::CurrentDepth() == 0
                  ? telemetry.prefix + (span_name ? span_name : step_name)
                  : std::string(span_name ? span_name : step_name)) {}
  ~StepSpan() {
    if (timer_ != nullptr) timer_->Add(step_name_, watch_.Seconds());
  }
  StepSpan(const StepSpan&) = delete;
  StepSpan& operator=(const StepSpan&) = delete;

 private:
  StepTimer* timer_;
  const char* step_name_;
  WallTimer watch_;
  obs::TraceSpan span_;
};

/// One epoch of a trainer's objective at the current parameters.
struct EpochGradient {
  linear::ParamVec grad;           ///< without the L2 term
  std::vector<double> env_losses;  ///< per task, for the trajectory series
  double penalty = 0.0;            ///< for the penalty series
};

/// A trainer's per-epoch gradient. It records its own Table III steps;
/// `rng` is the run's stream, already past the initial model's draws.
using EpochGradientFn = std::function<Status(
    int epoch, const linear::ParamVec& params, Rng* rng, EpochGradient* out)>;

/// Names of the per-epoch trajectory series a trainer records: one per
/// task (`<prefix><loss>.env_<id>`) and one penalty (`<prefix><penalty>`).
/// A null `loss` records none.
struct TrajectoryNames {
  const char* loss = nullptr;
  const char* penalty = nullptr;
};

/// The outer loop every full-batch trainer runs: seeds the Rng and draws
/// the initial model, then per epoch runs `gradient` inside the epoch span,
/// adds `l2` * theta (bias excluded) and takes one Adam step; afterwards it
/// records the trajectories, fires the epoch callback and keeps the best
/// validation epoch.
Result<TrainedPredictor> FitByEpochs(const TrainerOptions& options,
                                     const TrainData& data, double l2,
                                     TrajectoryNames trajectories,
                                     const EpochGradientFn& gradient);

/// Abstract learning algorithm.
class Trainer {
 public:
  virtual ~Trainer() = default;

  /// Algorithm name as it appears in the paper's tables.
  virtual std::string Name() const = 0;

  /// Runs the full training loop and returns the learned predictor.
  virtual Result<TrainedPredictor> Fit(const TrainData& data) = 0;
};

}  // namespace lightmirm::train
