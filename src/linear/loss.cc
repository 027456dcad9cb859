#include "linear/loss.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace lightmirm::linear {
namespace {

// Clamped log to keep the loss finite for saturated probabilities.
double SafeLog(double v) { return std::log(std::max(v, 1e-12)); }

double RowWeight(const LossContext& ctx, size_t r) {
  return ctx.weights != nullptr ? (*ctx.weights)[r] : 1.0;
}

// Calls fn(i, rows[i], x_{rows[i]}^T w) for every i, in order. The dot
// products of each block are taken together before the block's rows are
// visited.
template <typename Fn>
void ForEachRowDot(const FeatureMatrix& x, const std::vector<size_t>& rows,
                   const std::vector<double>& w, Fn&& fn) {
  constexpr size_t kBlock = FeatureMatrix::kRowBlock;
  double dots[kBlock];
  for (size_t begin = 0; begin < rows.size(); begin += kBlock) {
    const size_t count = std::min(kBlock, rows.size() - begin);
    x.RowDots(rows.data() + begin, count, w, dots);
    for (size_t k = 0; k < count; ++k) {
      fn(begin + k, rows[begin + k], dots[k]);
    }
  }
}

// The gradient (and, with kWithLoss, the loss) of the mean BCE; one body
// so BceGrad's gradient is BceLossGrad's bit for bit.
template <bool kWithLoss>
double BceGradImpl(const LossContext& ctx, const std::vector<size_t>& rows,
                   const ParamVec& params, ParamVec* grad,
                   std::vector<double>* probs) {
  assert(ctx.x != nullptr && ctx.labels != nullptr && !rows.empty());
  grad->assign(params.size(), 0.0);
  if (probs != nullptr) probs->resize(rows.size());
  double loss = 0.0, total_w = 0.0;
  ForEachRowDot(*ctx.x, rows, params, [&](size_t i, size_t r, double dot) {
    const double w = RowWeight(ctx, r);
    const double p = Sigmoid(dot + params.back());
    if (probs != nullptr) (*probs)[i] = p;
    const int y = (*ctx.labels)[r];
    if constexpr (kWithLoss) {
      loss -= w * (y == 1 ? SafeLog(p) : SafeLog(1.0 - p));
    }
    const double residual = w * (p - static_cast<double>(y));
    ctx.x->AddScaledRow(r, residual, grad);
    grad->back() += residual;
    total_w += w;
  });
  const double inv_w = 1.0 / total_w;
  for (double& g : *grad) g *= inv_w;
  return loss * inv_w;
}

}  // namespace

double BceLoss(const LossContext& ctx, const std::vector<size_t>& rows,
               const ParamVec& params) {
  assert(ctx.x != nullptr && ctx.labels != nullptr && !rows.empty());
  double loss = 0.0, total_w = 0.0;
  ForEachRowDot(*ctx.x, rows, params, [&](size_t, size_t r, double dot) {
    const double w = RowWeight(ctx, r);
    const double p = Sigmoid(dot + params.back());
    const int y = (*ctx.labels)[r];
    loss -= w * (y == 1 ? SafeLog(p) : SafeLog(1.0 - p));
    total_w += w;
  });
  return loss / total_w;
}

double BceLossGrad(const LossContext& ctx, const std::vector<size_t>& rows,
                   const ParamVec& params, ParamVec* grad) {
  return BceGradImpl<true>(ctx, rows, params, grad, nullptr);
}

void BceGrad(const LossContext& ctx, const std::vector<size_t>& rows,
             const ParamVec& params, ParamVec* grad,
             std::vector<double>* probs) {
  BceGradImpl<false>(ctx, rows, params, grad, probs);
}

void BceHvp(const LossContext& ctx, const std::vector<size_t>& rows,
            const std::vector<double>& probs, const ParamVec& v,
            ParamVec* hv) {
  assert(ctx.x != nullptr && ctx.labels != nullptr && !rows.empty());
  assert(probs.size() == rows.size());
  hv->assign(v.size(), 0.0);
  double total_w = 0.0;
  ForEachRowDot(*ctx.x, rows, v, [&](size_t i, size_t r, double dot) {
    const double w = RowWeight(ctx, r);
    const double s = probs[i] * (1.0 - probs[i]);
    const double xv = dot + v.back();
    const double coeff = w * s * xv;
    ctx.x->AddScaledRow(r, coeff, hv);
    hv->back() += coeff;
    total_w += w;
  });
  const double inv_w = 1.0 / total_w;
  for (double& h : *hv) h *= inv_w;
}

double AddL2(const ParamVec& params, double l2, ParamVec* grad) {
  if (l2 == 0.0) return 0.0;
  double penalty = 0.0;
  for (size_t j = 0; j + 1 < params.size(); ++j) {
    penalty += params[j] * params[j];
    if (grad != nullptr) (*grad)[j] += l2 * params[j];
  }
  return 0.5 * l2 * penalty;
}

std::vector<size_t> AllRows(size_t n) {
  std::vector<size_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

}  // namespace lightmirm::linear
