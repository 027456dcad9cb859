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

void MamlOuterGradient(const linear::LossContext& ctx, const TrainData& data,
                       const linear::ParamVec& params, double inner_lr,
                       double lambda, bool second_order,
                       const StepTelemetry& telemetry,
                       const MetaLossPhase& meta_loss, MetaStepOutput* out) {
  const size_t num_tasks = data.NumTasks();
  const size_t dim = params.size();
  std::vector<linear::ParamVec> theta_bar(num_tasks);
  std::vector<linear::ParamVec> meta_grads(num_tasks);
  // p_i at theta over each task's rows: the inner step computes them and
  // the backward pass's HVP, at the same theta, reuses them.
  std::vector<std::vector<double>> probs(num_tasks);
  out->meta_losses.assign(num_tasks, 0.0);
  obs::Histogram* env_task_seconds =
      telemetry.metrics != nullptr
          ? telemetry.metrics->GetHistogram(telemetry.prefix +
                                            "inner.env_task.seconds")
          : nullptr;

  // Inner loop (Algorithms 1 and 2, lines 6-7). Each task m is independent
  // given theta, so the inner steps run environment-parallel; every task
  // writes only its own theta_bar[m].
  {
    StepSpan scope(telemetry, kStepInnerOptimization);
    ParallelFor(0, num_tasks, 1, [&](size_t m) {
      WallTimer task_watch;
      linear::ParamVec grad_m;
      linear::BceGrad(ctx, data.env_rows[m], params, &grad_m,
                      second_order ? &probs[m] : nullptr);
      theta_bar[m] = params;
      for (size_t j = 0; j < dim; ++j) {
        theta_bar[m][j] -= inner_lr * grad_m[j];
      }
      if (env_task_seconds != nullptr) {
        env_task_seconds->Record(task_watch.Seconds());
      }
    });
  }

  {
    StepSpan scope(telemetry, kStepMetaLosses);
    meta_loss(theta_bar, &out->meta_losses, &meta_grads);
  }

  // Backward: d/dtheta [sum_m R_meta + lambda*sigma], with the inner-step
  // Jacobian (I - alpha*H^m(theta)) applied exactly via Hessian-vector
  // products. HVPs run task-parallel; the reduction into outer_grad stays
  // serial in task order for bit-stable float sums.
  {
    StepSpan scope(telemetry, kStepBackward);
    const std::vector<double> coeffs =
        OuterCoefficients(out->meta_losses, lambda);
    out->outer_grad.assign(dim, 0.0);
    std::vector<linear::ParamVec> hvs;
    if (second_order) {
      hvs.resize(num_tasks);
      ParallelFor(0, num_tasks, 1, [&](size_t m) {
        linear::BceHvp(ctx, data.env_rows[m], probs[m], meta_grads[m],
                       &hvs[m]);
      });
    }
    for (size_t m = 0; m < num_tasks; ++m) {
      if (second_order) {
        for (size_t j = 0; j < dim; ++j) {
          out->outer_grad[j] +=
              coeffs[m] * (meta_grads[m][j] - inner_lr * hvs[m][j]);
        }
      } else {
        for (size_t j = 0; j < dim; ++j) {
          out->outer_grad[j] += coeffs[m] * meta_grads[m][j];
        }
      }
    }
  }
}

Status MetaIrmOuterGradient(const linear::LossContext& ctx,
                            const TrainData& data,
                            const linear::ParamVec& params,
                            const MetaIrmOptions& options, Rng* rng,
                            const StepTelemetry& telemetry,
                            MetaStepOutput* out) {
  const size_t num_tasks = data.NumTasks();
  const size_t dim = params.size();
  // Meta-losses (line 8): R_meta(theta_bar_m) over the other environments
  // (all of them, or a random subset of size S). Sampling draws consume
  // the RNG serially in task order, then the per-task loss sums run
  // environment-parallel, each in task order within the task.
  const auto meta_loss = [&](const std::vector<linear::ParamVec>& theta_bar,
                             std::vector<double>* meta_losses,
                             std::vector<linear::ParamVec>* meta_grads) {
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
      (*meta_grads)[m].assign(dim, 0.0);
      linear::ParamVec env_grad;
      for (size_t other : eval_envs[m]) {
        (*meta_losses)[m] += linear::BceLossGrad(
            ctx, data.env_rows[other], theta_bar[m], &env_grad);
        for (size_t j = 0; j < dim; ++j) (*meta_grads)[m][j] += env_grad[j];
      }
    });
  };
  MamlOuterGradient(ctx, data, params, options.inner_lr, options.lambda,
                    options.second_order, telemetry, meta_loss, out);
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
  const linear::LossContext ctx = data.Context();
  const StepTelemetry telemetry = StepTelemetry::From(options_);
  MetaStepOutput step;
  return FitByEpochs(
      options_, data, options_.l2, {"meta_loss", "sigma_penalty"},
      [&](int, const linear::ParamVec& params, Rng* rng, EpochGradient* out) {
        LIGHTMIRM_RETURN_NOT_OK(MetaIrmOuterGradient(ctx, data, params, meta_,
                                                     rng, telemetry, &step));
        out->grad.swap(step.outer_grad);
        out->env_losses.swap(step.meta_losses);
        out->penalty = PopulationStdDev(out->env_losses);
        return Status::OK();
      });
}

}  // namespace lightmirm::train
