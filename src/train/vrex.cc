#include "train/vrex.h"

namespace lightmirm::train {

Result<TrainedPredictor> VRexTrainer::Fit(const TrainData& data) {
  const linear::LossContext ctx = data.Context();
  const size_t num_tasks = data.NumTasks();
  const double inv_m = 1.0 / static_cast<double>(num_tasks);
  const StepTelemetry telemetry = StepTelemetry::From(options_);
  std::vector<linear::ParamVec> grads(num_tasks);
  return FitByEpochs(
      options_, data, options_.l2, {"risk", "variance_penalty"},
      [&](int, const linear::ParamVec& params, Rng*, EpochGradient* out) {
        StepSpan scope(telemetry, kStepBackward);
        std::vector<double>& risks = out->env_losses;
        risks.resize(num_tasks);
        double mean_risk = 0.0;
        for (size_t t = 0; t < num_tasks; ++t) {
          risks[t] =
              linear::BceLossGrad(ctx, data.env_rows[t], params, &grads[t]);
          mean_risk += risks[t] * inv_m;
        }
        // d/dtheta [mean + beta * var] =
        //   sum_t [1/M + 2*beta*(R_t - mean)/M] * grad_t.
        out->grad.assign(params.size(), 0.0);
        out->penalty = 0.0;
        for (size_t t = 0; t < num_tasks; ++t) {
          const double dev = risks[t] - mean_risk;
          out->penalty += vrex_.beta * inv_m * dev * dev;
          const double coeff = inv_m * (1.0 + 2.0 * vrex_.beta * dev);
          for (size_t j = 0; j < out->grad.size(); ++j) {
            out->grad[j] += coeff * grads[t][j];
          }
        }
        return Status::OK();
      });
}

}  // namespace lightmirm::train
