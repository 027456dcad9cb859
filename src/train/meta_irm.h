// meta-IRM (Algorithm 1 of the paper; Bae et al. 2021): solves the IRM
// bi-level problem with MAML. Per outer iteration, each environment m runs
// one inner gradient step theta_bar_m = theta - alpha * grad R^m(theta),
// then the meta-loss R_meta(theta_bar_m) = sum_{m' != m} R^{m'}(theta_bar_m)
// is computed, and the outer update descends on
//   sum_m R_meta(theta_bar_m) + lambda * stddev_m(R_meta(theta_bar_m)).
//
// The outer gradient is computed *exactly* for the logistic head: the
// Jacobian of the inner step is I - alpha * H^m(theta), applied through an
// analytic Hessian-vector product (see linear/loss.h) — no autodiff tape
// needed. Setting second_order = false yields the first-order MAML
// approximation (ablation).
//
// sample_size > 0 gives the paper's "meta-IRM(S)" variants (Table II):
// only S randomly sampled environments (!= m) enter each meta-loss.
#pragma once

#include "train/trainer.h"

namespace lightmirm::train {

struct MetaIrmOptions {
  /// Inner-loop learning rate alpha.
  double inner_lr = 0.3;
  /// Weight lambda of the meta-loss standard-deviation term (Eq. 6/7).
  double lambda = 6.0;
  /// 0 = complete meta-IRM (all other environments); S > 0 samples S
  /// environments per task per iteration (meta-IRM(S)).
  int sample_size = 0;
  /// If false, drop the Hessian term (first-order MAML).
  bool second_order = true;
};

class MetaIrmTrainer : public Trainer {
 public:
  MetaIrmTrainer(TrainerOptions options, MetaIrmOptions meta)
      : options_(std::move(options)), meta_(meta) {}

  std::string Name() const override;
  Result<TrainedPredictor> Fit(const TrainData& data) override;

  const MetaIrmOptions& meta_options() const { return meta_; }

 private:
  TrainerOptions options_;
  MetaIrmOptions meta_;
};

/// One outer iteration's intermediate results (exposed for testing and for
/// the benches that inspect meta-losses directly).
struct MetaStepOutput {
  std::vector<double> meta_losses;   ///< R_meta(theta_bar_m) per task
  linear::ParamVec outer_grad;       ///< gradient of sum + lambda*sigma
};

/// A meta-loss phase of the MAML step: given each task's adapted
/// parameters theta_bar[m], fills (*meta_losses)[m] (zero on entry) and
/// (*meta_grads)[m], the gradient of task m's meta-loss at theta_bar[m].
using MetaLossPhase = std::function<void(
    const std::vector<linear::ParamVec>& theta_bar,
    std::vector<double>* meta_losses,
    std::vector<linear::ParamVec>* meta_grads)>;

/// The MAML bi-level step meta-IRM and LightMIRM share, at `params`: one
/// inner step per task, theta_bar_m = theta - inner_lr * grad R^m(theta)
/// (environment-parallel), then `meta_loss` inside the meta-loss span, then
/// the exact backward pass through the inner-step Jacobian
/// (I - inner_lr * H^m(theta)): per-task HVPs run in parallel and are
/// summed serially in task order. second_order = false drops the HVP.
void MamlOuterGradient(const linear::LossContext& ctx, const TrainData& data,
                       const linear::ParamVec& params, double inner_lr,
                       double lambda, bool second_order,
                       const StepTelemetry& telemetry,
                       const MetaLossPhase& meta_loss, MetaStepOutput* out);

/// Computes the exact outer gradient of Algorithm 1 at `params` (without
/// the L2 term). With options.sample_size > 0 the sampled variant is used
/// (consuming randomness from `rng`).
Status MetaIrmOuterGradient(const linear::LossContext& ctx,
                            const TrainData& data,
                            const linear::ParamVec& params,
                            const MetaIrmOptions& options, Rng* rng,
                            const StepTelemetry& telemetry,
                            MetaStepOutput* out);

/// Evaluates the meta-IRM outer objective sum_m R_meta(theta_bar_m) +
/// lambda*sigma at `params` (complete variant only — sample_size is
/// ignored). Used by gradient-check tests.
double MetaIrmObjective(const linear::LossContext& ctx, const TrainData& data,
                        const linear::ParamVec& params,
                        const MetaIrmOptions& options);

/// Shared helper: population standard deviation (Eq. 7).
double PopulationStdDev(const std::vector<double>& values);

/// Shared helper: outer-loop coefficients c_m = 1 + lambda*(R_m - mean)/
/// (M*sigma) — the derivative of sum_m R_m + lambda*sigma with respect to
/// R_m. When sigma is ~0 the lambda term vanishes.
std::vector<double> OuterCoefficients(const std::vector<double>& meta_losses,
                                      double lambda);

}  // namespace lightmirm::train
