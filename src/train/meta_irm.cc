#include "train/meta_irm.h"

#include <cmath>

#include "common/string_util.h"
#include "common/thread_pool.h"

namespace lightmirm::train {

double PopulationStdDev(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  const double inv_m = 1.0 / static_cast<double>(values.size());
  double mean = 0.0;
  for (double v : values) mean += v * inv_m;
  double var = 0.0;
  for (double v : values) var += (v - mean) * (v - mean) * inv_m;
  return std::sqrt(var);
}

std::vector<double> OuterCoefficients(const std::vector<double>& meta_losses,
                                      double lambda) {
  const size_t m = meta_losses.size();
  std::vector<double> coeffs(m, 1.0);
  const double sigma = PopulationStdDev(meta_losses);
  if (sigma < 1e-12 || lambda == 0.0) return coeffs;
  double mean = 0.0;
  for (double v : meta_losses) mean += v;
  mean /= static_cast<double>(m);
  for (size_t t = 0; t < m; ++t) {
    coeffs[t] +=
        lambda * (meta_losses[t] - mean) / (static_cast<double>(m) * sigma);
  }
  return coeffs;
}

Status MetaIrmOuterGradient(const linear::LossContext& ctx,
                            const TrainData& data,
                            const linear::ParamVec& params,
                            const MetaIrmOptions& options, Rng* rng,
                            const StepTelemetry& telemetry,
                            MetaStepOutput* out) {
  const size_t num_tasks = data.NumTasks();
  const size_t dim = params.size();
  std::vector<linear::ParamVec> theta_bar(num_tasks);
  std::vector<linear::ParamVec> meta_grads(num_tasks);
  // p_i at theta over each task's rows, from the inner step, for the HVP.
  std::vector<std::vector<double>> probs(num_tasks);
  out->meta_losses.assign(num_tasks, 0.0);

  // Inner loop (Algorithm 1, lines 6-7): one gradient step per environment,
  // environment-parallel (tasks are independent given theta).
  {
    StepSpan scope(telemetry, kStepInnerOptimization);
    ParallelFor(0, num_tasks, 1, [&](size_t m) {
      linear::ParamVec grad_m;
      linear::BceGrad(ctx, data.env_rows[m], params, &grad_m,
                      options.second_order ? &probs[m] : nullptr);
      theta_bar[m] = params;
      for (size_t j = 0; j < dim; ++j) {
        theta_bar[m][j] -= options.inner_lr * grad_m[j];
      }
    });
  }

  // Meta-losses (line 8): R_meta(theta_bar_m) over the other environments
  // (all of them, or a random subset of size S). Sampling draws consume
  // the RNG serially in task order — the same stream as the serial loop —
  // then the per-task loss sums run environment-parallel, each in the same
  // within-task evaluation order as the serial code.
  {
    StepSpan scope(telemetry, kStepMetaLosses);
    std::vector<std::vector<size_t>> eval_envs(num_tasks);
    for (size_t m = 0; m < num_tasks; ++m) {
      if (options.sample_size == 0) {
        eval_envs[m].reserve(num_tasks - 1);
        for (size_t other = 0; other < num_tasks; ++other) {
          if (other != m) eval_envs[m].push_back(other);
        }
      } else {
        // Sample S distinct environments != m (partial Fisher-Yates).
        std::vector<size_t> pool;
        pool.reserve(num_tasks - 1);
        for (size_t other = 0; other < num_tasks; ++other) {
          if (other != m) pool.push_back(other);
        }
        for (int s = 0; s < options.sample_size; ++s) {
          const size_t pick =
              static_cast<size_t>(s) +
              rng->UniformInt(pool.size() - static_cast<size_t>(s));
          std::swap(pool[static_cast<size_t>(s)], pool[pick]);
          eval_envs[m].push_back(pool[static_cast<size_t>(s)]);
        }
      }
    }
    ParallelFor(0, num_tasks, 1, [&](size_t m) {
      meta_grads[m].assign(dim, 0.0);
      linear::ParamVec env_grad;
      for (size_t other : eval_envs[m]) {
        out->meta_losses[m] += linear::BceLossGrad(
            ctx, data.env_rows[other], theta_bar[m], &env_grad);
        for (size_t j = 0; j < dim; ++j) meta_grads[m][j] += env_grad[j];
      }
    });
  }

  // Backward (lines 10-11): d/dtheta [sum_m R_meta + lambda*sigma], with
  // the inner-step Jacobian (I - alpha*H^m(theta)) applied exactly via
  // Hessian-vector products. HVPs run task-parallel; the reduction into
  // outer_grad stays serial in task order for bit-stable float sums.
  {
    StepSpan scope(telemetry, kStepBackward);
    const std::vector<double> coeffs =
        OuterCoefficients(out->meta_losses, options.lambda);
    out->outer_grad.assign(dim, 0.0);
    std::vector<linear::ParamVec> hvs;
    if (options.second_order) {
      hvs.resize(num_tasks);
      ParallelFor(0, num_tasks, 1, [&](size_t m) {
        linear::BceHvp(ctx, data.env_rows[m], probs[m], meta_grads[m],
                       &hvs[m]);
      });
    }
    for (size_t m = 0; m < num_tasks; ++m) {
      if (options.second_order) {
        for (size_t j = 0; j < dim; ++j) {
          out->outer_grad[j] +=
              coeffs[m] * (meta_grads[m][j] - options.inner_lr * hvs[m][j]);
        }
      } else {
        for (size_t j = 0; j < dim; ++j) {
          out->outer_grad[j] += coeffs[m] * meta_grads[m][j];
        }
      }
    }
  }
  return Status::OK();
}

double MetaIrmObjective(const linear::LossContext& ctx, const TrainData& data,
                        const linear::ParamVec& params,
                        const MetaIrmOptions& options) {
  const size_t num_tasks = data.NumTasks();
  const size_t dim = params.size();
  std::vector<double> meta_losses(num_tasks, 0.0);
  linear::ParamVec grad_m, theta_bar;
  for (size_t m = 0; m < num_tasks; ++m) {
    linear::BceGrad(ctx, data.env_rows[m], params, &grad_m);
    theta_bar = params;
    for (size_t j = 0; j < dim; ++j) {
      theta_bar[j] -= options.inner_lr * grad_m[j];
    }
    for (size_t other = 0; other < num_tasks; ++other) {
      if (other == m) continue;
      meta_losses[m] += linear::BceLoss(ctx, data.env_rows[other], theta_bar);
    }
  }
  double total = 0.0;
  for (double v : meta_losses) total += v;
  return total + options.lambda * PopulationStdDev(meta_losses);
}

std::string MetaIrmTrainer::Name() const {
  if (meta_.sample_size > 0) {
    return StrFormat("meta-IRM(%d)", meta_.sample_size);
  }
  return "meta-IRM";
}

Result<TrainedPredictor> MetaIrmTrainer::Fit(const TrainData& data) {
  const size_t num_tasks = data.NumTasks();
  if (num_tasks < 2) {
    return Status::FailedPrecondition(
        "meta-IRM needs at least 2 environments");
  }
  if (meta_.inner_lr <= 0.0) {
    return Status::InvalidArgument("inner_lr must be positive");
  }
  if (meta_.sample_size < 0 ||
      static_cast<size_t>(meta_.sample_size) >= num_tasks) {
    return Status::InvalidArgument(StrFormat(
        "sample_size must be in [0, M-1] = [0, %zu], got %d", num_tasks - 1,
        meta_.sample_size));
  }

  Rng rng(options_.seed);
  linear::LogisticModel model = linear::LogisticModel::RandomInit(
      data.x->cols(), options_.init_scale, &rng);
  LIGHTMIRM_ASSIGN_OR_RETURN(std::unique_ptr<linear::Optimizer> opt,
                             linear::Optimizer::Create(options_.optimizer));
  const linear::LossContext ctx = data.Context();
  const StepTelemetry telemetry = StepTelemetry::From(options_);
  const MetaTrajectoryRecorder trajectories(telemetry, data.env_ids);

  MetaStepOutput step;
  BestModelTracker tracker(&options_);
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    {
      StepSpan epoch_span(telemetry, kStepEpoch, "epoch");
      LIGHTMIRM_RETURN_NOT_OK(MetaIrmOuterGradient(
          ctx, data, model.params(), meta_, &rng, telemetry, &step));
      StepSpan scope(telemetry, kStepBackward);
      linear::AddL2(model.params(), options_.l2, &step.outer_grad);
      opt->Step(step.outer_grad, &model.mutable_params());
    }
    trajectories.Record(step.meta_losses);
    if (options_.epoch_callback) options_.epoch_callback(epoch, model);
    if (!tracker.Observe(model)) break;
  }
  tracker.Finalize(&model);

  TrainedPredictor predictor;
  predictor.global = std::move(model);
  return predictor;
}

}  // namespace lightmirm::train
