// Adam (Kingma & Ba 2015) on packed parameter vectors: the one optimizer
// the meta-IRM / LightMIRM outer loop, the ERM-family baselines and the
// fine-tuning adaptation step through.
#pragma once

#include "common/result.h"
#include "linear/logistic.h"

namespace lightmirm::linear {

/// Adam configuration.
struct OptimizerOptions {
  double learning_rate = 0.05;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
};

/// Stateful bias-corrected Adam stepper.
class Adam {
 public:
  /// Errors on a non-positive learning rate.
  static Result<Adam> Create(const OptimizerOptions& options);

  /// Applies one update: params -= lr * mhat / (sqrt(vhat) + eps). Sizes
  /// must match the first call's.
  void Step(const ParamVec& grad, ParamVec* params);

 private:
  explicit Adam(const OptimizerOptions& options) : options_(options) {}

  OptimizerOptions options_;
  ParamVec m_, v_;
  int64_t t_ = 0;
};

}  // namespace lightmirm::linear
