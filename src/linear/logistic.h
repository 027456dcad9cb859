// Logistic regression model (Eq. 2 of the paper):
//   y_hat = sigmoid(theta^T x + b).
// Parameters are packed into a single vector of size cols+1 with the bias
// last, which keeps the MAML inner/outer updates plain vector arithmetic.
#pragma once

#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "linear/feature_matrix.h"

namespace lightmirm::linear {

/// Packed parameter vector: [theta_0..theta_{d-1}, bias].
using ParamVec = std::vector<double>;

/// Numerically stable sigmoid.
double Sigmoid(double x);

/// The LR predictor of the paper.
class LogisticModel {
 public:
  LogisticModel() = default;

  /// Creates a model for `num_features` inputs with zero parameters.
  explicit LogisticModel(size_t num_features);

  /// Creates a model with small random parameters (N(0, init_scale)).
  static LogisticModel RandomInit(size_t num_features, double init_scale,
                                  Rng* rng);

  size_t num_features() const {
    return params_.empty() ? 0 : params_.size() - 1;
  }

  const ParamVec& params() const { return params_; }
  ParamVec& mutable_params() { return params_; }
  void set_params(ParamVec params) { params_ = std::move(params); }

  double bias() const { return params_.back(); }

  /// Predicted default probability for row r of X.
  double PredictRow(const FeatureMatrix& x, size_t r) const;

  /// Predicted probabilities for all rows.
  std::vector<double> Predict(const FeatureMatrix& x) const;

  /// Predicted probabilities for a subset of rows (aligned with `rows`),
  /// PredictRow's bits for each. Runs row-blocked on the thread pool.
  std::vector<double> PredictRows(const FeatureMatrix& x,
                                  const std::vector<size_t>& rows) const;

 private:
  ParamVec params_;
};

}  // namespace lightmirm::linear
