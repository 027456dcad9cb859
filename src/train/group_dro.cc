#include "train/group_dro.h"

#include <cmath>

namespace lightmirm::train {

Result<TrainedPredictor> GroupDroTrainer::Fit(const TrainData& data) {
  const linear::LossContext ctx = data.Context();
  const size_t num_tasks = data.NumTasks();
  std::vector<double> q(num_tasks, 1.0 / static_cast<double>(num_tasks));
  const StepTelemetry telemetry = StepTelemetry::From(options_);
  std::vector<linear::ParamVec> grads(num_tasks);
  return FitByEpochs(
      options_, data, options_.l2 * dro_.l2_multiplier,
      {"risk", "weighted_risk"},
      [&](int, const linear::ParamVec& params, Rng*, EpochGradient* out) {
        StepSpan scope(telemetry, kStepBackward);
        std::vector<double>& risks = out->env_losses;
        risks.resize(num_tasks);
        // Per-group risks and gradients.
        for (size_t t = 0; t < num_tasks; ++t) {
          risks[t] =
              linear::BceLossGrad(ctx, data.env_rows[t], params, &grads[t]);
        }
        // Exponentiated-gradient ascent on q.
        double q_total = 0.0;
        for (size_t t = 0; t < num_tasks; ++t) {
          q[t] *= std::exp(dro_.group_step * risks[t]);
          q_total += q[t];
        }
        for (double& v : q) v /= q_total;
        // Descend on the q-weighted risk.
        out->grad.assign(params.size(), 0.0);
        out->penalty = 0.0;
        for (size_t t = 0; t < num_tasks; ++t) {
          out->penalty += q[t] * risks[t];
          for (size_t j = 0; j < out->grad.size(); ++j) {
            out->grad[j] += q[t] * grads[t][j];
          }
        }
        return Status::OK();
      });
}

}  // namespace lightmirm::train
