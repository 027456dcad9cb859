#include "train/irmv1.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace lightmirm::train {
namespace {

// Computes, for one environment:
//   risk        = mean BCE
//   risk_grad   += mean BCE gradient (accumulated with coefficient 1/M)
//   D           = d/dw R(w*z)|_{w=1} = mean (p - y) * z
//   D_grad      = grad_theta D = mean [(p - y) + s z] * x_tilde
// and returns D so the caller can add 2*lambda*D*D_grad. One pass over the
// rows takes each row's two gradient coefficients and the scalar sums in
// row order; the column sums then run along the row set's index.
double EnvPenaltyTerms(const linear::LossContext& ctx,
                       const linear::RowSet& rows,
                       const linear::ParamVec& params, double inv_m,
                       linear::ParamVec* risk_grad,
                       linear::ParamVec* d_grad, double* risk_out) {
  const size_t n = rows.size();
  std::vector<double> risk_coeffs(n), d_coeffs(n);
  double risk = 0.0, d_val = 0.0, total_w = 0.0;
  double risk_bias = 0.0, d_bias = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const size_t r = rows[i];
    const double w = ctx.weights != nullptr ? (*ctx.weights)[r] : 1.0;
    const double z = ctx.x->RowDot(r, params) + params.back();
    const double p = linear::Sigmoid(z);
    const int y = (*ctx.labels)[r];
    risk -= w * (y == 1 ? std::log(std::max(p, 1e-12))
                        : std::log(std::max(1.0 - p, 1e-12)));
    const double residual = p - static_cast<double>(y);
    const double s = p * (1.0 - p);
    // Risk gradient.
    risk_coeffs[i] = w * residual;
    risk_bias += risk_coeffs[i];
    // Dummy-classifier derivative and its gradient.
    d_val += w * residual * z;
    d_coeffs[i] = w * (residual + s * z);
    d_bias += d_coeffs[i];
    total_w += w;
  }
  linear::ParamVec local_grad(params.size());
  rows.ColumnSums(risk_coeffs.data(), local_grad.data());
  local_grad.back() = risk_bias;
  d_grad->resize(params.size());
  rows.ColumnSums(d_coeffs.data(), d_grad->data());
  d_grad->back() = d_bias;
  const double inv_w = 1.0 / total_w;
  risk *= inv_w;
  d_val *= inv_w;
  for (size_t j = 0; j < params.size(); ++j) {
    (*risk_grad)[j] += inv_m * inv_w * local_grad[j];
    (*d_grad)[j] *= inv_w;
  }
  *risk_out = risk;
  return d_val;
}

}  // namespace

Result<TrainedPredictor> IrmV1Trainer::Fit(const TrainData& data) {
  const linear::LossContext ctx = data.Context();
  const size_t num_tasks = data.NumTasks();
  const double inv_m = 1.0 / static_cast<double>(num_tasks);
  const StepTelemetry telemetry = StepTelemetry::From(options_);
  linear::ParamVec d_grad;
  return FitByEpochs(
      options_, data, options_.l2, {"risk", "grad_penalty"},
      [&](int epoch, const linear::ParamVec& params, Rng*,
          EpochGradient* out) {
        StepSpan scope(telemetry, kStepBackward);
        out->env_losses.resize(num_tasks);
        out->grad.assign(params.size(), 0.0);
        out->penalty = 0.0;
        const double lambda =
            epoch >= irm_.penalty_anneal_epochs ? irm_.penalty_weight : 0.0;
        for (size_t t = 0; t < num_tasks; ++t) {
          const double d_val =
              EnvPenaltyTerms(ctx, data.env_rows[t], params, inv_m,
                              &out->grad, &d_grad, &out->env_losses[t]);
          out->penalty += lambda * inv_m * d_val * d_val;
          if (lambda > 0.0) {
            const double coeff = inv_m * 2.0 * lambda * d_val;
            for (size_t j = 0; j < out->grad.size(); ++j) {
              out->grad[j] += coeff * d_grad[j];
            }
          }
        }
        return Status::OK();
      });
}

}  // namespace lightmirm::train
