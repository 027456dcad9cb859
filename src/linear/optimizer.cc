#include "linear/optimizer.h"

#include <cmath>

namespace lightmirm::linear {

Result<Adam> Adam::Create(const OptimizerOptions& options) {
  if (options.learning_rate <= 0.0) {
    return Status::InvalidArgument("learning_rate must be positive");
  }
  return Adam(options);
}

void Adam::Step(const ParamVec& grad, ParamVec* params) {
  if (m_.size() != grad.size()) {
    m_.assign(grad.size(), 0.0);
    v_.assign(grad.size(), 0.0);
    t_ = 0;
  }
  ++t_;
  const double lr = options_.learning_rate, beta1 = options_.beta1,
               beta2 = options_.beta2, eps = options_.epsilon;
  const double bc1 = 1.0 - std::pow(beta1, t_);
  const double bc2 = 1.0 - std::pow(beta2, t_);
  for (size_t i = 0; i < grad.size(); ++i) {
    m_[i] = beta1 * m_[i] + (1.0 - beta1) * grad[i];
    v_[i] = beta2 * v_[i] + (1.0 - beta2) * grad[i] * grad[i];
    const double mhat = m_[i] / bc1;
    const double vhat = v_[i] / bc2;
    (*params)[i] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

}  // namespace lightmirm::linear
