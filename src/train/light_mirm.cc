#include "train/light_mirm.h"

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
  // Environment sampling + meta-loss replaying (Algorithm 2, lines 8-10):
  // one sampled environment per task, pushed through the MRQ. The draws
  // consume the RNG serially in task order; only the loss/gradient
  // evaluations run in parallel, and the MRQ pushes replay serially in task
  // order afterwards. Only the newest queue element depends on the current
  // theta_bar_m, and its decay weight is gamma^0 = 1, so the gradient of the
  // replayed meta-loss w.r.t. theta_bar_m is exactly the sampled
  // environment's gradient (lines 12-13).
  const auto meta_loss = [&](const std::vector<linear::ParamVec>& theta_bar,
                             std::vector<double>* meta_losses,
                             std::vector<linear::ParamVec>* meta_grads) {
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
                              theta_bar[m], &(*meta_grads)[m]);
    });
    for (size_t m = 0; m < num_tasks; ++m) {
      (*queues)[m].Push(sampled_loss[m]);
      (*meta_losses)[m] = (*queues)[m].ReplayedLoss();
    }
  };
  MamlOuterGradient(ctx, data, params, options.inner_lr, options.lambda,
                    options.second_order, telemetry, meta_loss, out);
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
  const linear::LossContext ctx = data.Context();
  const StepTelemetry telemetry = StepTelemetry::From(options_);
  MetaStepOutput step;
  return FitByEpochs(
      options_, data, options_.l2, {"meta_loss", "sigma_penalty"},
      [&](int, const linear::ParamVec& params, Rng* rng, EpochGradient* out) {
        LIGHTMIRM_RETURN_NOT_OK(LightMirmOuterGradient(
            ctx, data, params, light_, rng, telemetry, &queues, &step));
        out->grad.swap(step.outer_grad);
        out->env_losses.swap(step.meta_losses);
        out->penalty = PopulationStdDev(out->env_losses);
        return Status::OK();
      });
}

}  // namespace lightmirm::train
