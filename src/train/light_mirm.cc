#include "train/light_mirm.h"

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "train/meta_irm.h"
#include "train/mrq.h"

namespace lightmirm::train {

Status LightMirmOuterGradient(const linear::LossContext& ctx,
                              const TrainData& data,
                              const linear::ParamVec& params,
                              const LightMirmOptions& options, Rng* rng,
                              const StepTelemetry& telemetry,
                              std::vector<MetaLossReplayQueue>* queues,
                              MetaStepOutput* out) {
  const size_t num_tasks = data.NumTasks();
  if (queues->size() != num_tasks) {
    return Status::InvalidArgument("need one MRQ per task");
  }
  const size_t dim = params.size();
  std::vector<linear::ParamVec> theta_bar(num_tasks);
  std::vector<linear::ParamVec> sampled_grads(num_tasks);
  // p_i at theta over each task's rows: the inner step computes them and
  // the backward pass's HVP, at the same theta, reuses them.
  std::vector<std::vector<double>> probs(num_tasks);
  out->meta_losses.assign(num_tasks, 0.0);
  obs::Histogram* env_task_seconds =
      telemetry.metrics != nullptr
          ? telemetry.metrics->GetHistogram(telemetry.prefix +
                                            "inner.env_task.seconds")
          : nullptr;

  // Inner loop (Algorithm 2, lines 6-7). Each task m is independent given
  // theta, so the inner steps run environment-parallel; every task writes
  // only its own theta_bar[m].
  {
    StepSpan scope(telemetry, kStepInnerOptimization);
    ParallelFor(0, num_tasks, 1, [&](size_t m) {
      WallTimer task_watch;
      linear::ParamVec grad_m;
      linear::BceGrad(ctx, data.env_rows[m], params, &grad_m,
                      options.second_order ? &probs[m] : nullptr);
      theta_bar[m] = params;
      for (size_t j = 0; j < dim; ++j) {
        theta_bar[m][j] -= options.inner_lr * grad_m[j];
      }
      if (env_task_seconds != nullptr) {
        env_task_seconds->Record(task_watch.Seconds());
      }
    });
  }

  // Environment sampling + meta-loss replaying (lines 8-10): one sampled
  // environment per task, pushed through the MRQ. The draws consume the
  // RNG serially in task order (the exact stream the serial loop used);
  // only the loss/gradient evaluations run in parallel, and the MRQ pushes
  // replay serially in task order afterwards.
  {
    StepSpan scope(telemetry, kStepMetaLosses);
    std::vector<size_t> sampled_env(num_tasks);
    for (size_t m = 0; m < num_tasks; ++m) {
      size_t s = rng->UniformInt(num_tasks - 1);
      if (s >= m) ++s;  // s_m != m
      sampled_env[m] = s;
    }
    std::vector<double> sampled_loss(num_tasks, 0.0);
    ParallelFor(0, num_tasks, 1, [&](size_t m) {
      sampled_loss[m] =
          linear::BceLossGrad(ctx, data.env_rows[sampled_env[m]],
                              theta_bar[m], &sampled_grads[m]);
    });
    for (size_t m = 0; m < num_tasks; ++m) {
      (*queues)[m].Push(sampled_loss[m]);
      out->meta_losses[m] = (*queues)[m].ReplayedLoss();
    }
  }

  // Outer gradient (lines 12-13). Only the newest queue element depends on
  // the current theta_bar_m, and its decay weight is gamma^0 = 1, so the
  // gradient of the replayed meta-loss w.r.t. theta_bar_m is exactly the
  // sampled environment's gradient. The per-task HVPs run in parallel; the
  // accumulation happens serially in task order, so the sum matches the
  // serial loop bit for bit.
  {
    StepSpan scope(telemetry, kStepBackward);
    const std::vector<double> coeffs =
        OuterCoefficients(out->meta_losses, options.lambda);
    out->outer_grad.assign(dim, 0.0);
    std::vector<linear::ParamVec> hvs;
    if (options.second_order) {
      hvs.resize(num_tasks);
      ParallelFor(0, num_tasks, 1, [&](size_t m) {
        linear::BceHvp(ctx, data.env_rows[m], probs[m], sampled_grads[m],
                       &hvs[m]);
      });
    }
    for (size_t m = 0; m < num_tasks; ++m) {
      if (options.second_order) {
        for (size_t j = 0; j < dim; ++j) {
          out->outer_grad[j] +=
              coeffs[m] * (sampled_grads[m][j] - options.inner_lr * hvs[m][j]);
        }
      } else {
        for (size_t j = 0; j < dim; ++j) {
          out->outer_grad[j] += coeffs[m] * sampled_grads[m][j];
        }
      }
    }
  }
  return Status::OK();
}

Result<TrainedPredictor> LightMirmTrainer::Fit(const TrainData& data) {
  const size_t num_tasks = data.NumTasks();
  if (num_tasks < 2) {
    return Status::FailedPrecondition(
        "LightMIRM needs at least 2 environments");
  }
  if (light_.inner_lr <= 0.0) {
    return Status::InvalidArgument("inner_lr must be positive");
  }
  LIGHTMIRM_ASSIGN_OR_RETURN(
      MetaLossReplayQueue proto,
      MetaLossReplayQueue::Create(light_.mrq_length, light_.gamma));
  std::vector<MetaLossReplayQueue> queues(num_tasks, proto);

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
      LIGHTMIRM_RETURN_NOT_OK(LightMirmOuterGradient(ctx, data,
                                                     model.params(), light_,
                                                     &rng, telemetry, &queues,
                                                     &step));
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
