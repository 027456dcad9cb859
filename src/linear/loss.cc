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
void ForEachRowDot(const LossContext& ctx, const RowSet& rows,
                   const std::vector<double>& w, Fn&& fn) {
  assert(ctx.x != nullptr && ctx.labels != nullptr && !rows.empty());
  assert(&rows.matrix() == ctx.x && w.size() == ctx.x->cols() + 1);
  constexpr size_t kBlock = FeatureMatrix::kRowBlock;
  const std::vector<size_t>& list = rows.rows();
  double dots[kBlock];
  for (size_t begin = 0; begin < list.size(); begin += kBlock) {
    const size_t count = std::min(kBlock, list.size() - begin);
    ctx.x->RowDots(list.data() + begin, count, w, dots);
    for (size_t k = 0; k < count; ++k) {
      fn(begin + k, list[begin + k], dots[k]);
    }
  }
}

// out = (1/W) [ sum_i coeffs[i] x_i ; bias ]: the column sums, then the
// bias sum the row pass took, all scaled by the inverse total weight.
void FinishGradient(const RowSet& rows, const std::vector<double>& coeffs,
                    double bias, double total_w, std::vector<double>* out) {
  rows.ColumnSums(coeffs.data(), out->data());
  out->back() = bias;
  const double inv_w = 1.0 / total_w;
  for (double& g : *out) g *= inv_w;
}

// The gradient (and, with kWithLoss, the loss) of the mean BCE; one body
// so BceGrad's gradient is BceLossGrad's bit for bit.
template <bool kWithLoss>
double BceGradImpl(const LossContext& ctx, const RowSet& rows,
                   const ParamVec& params, ParamVec* grad,
                   std::vector<double>* probs) {
  grad->resize(params.size());
  if (probs != nullptr) probs->resize(rows.size());
  std::vector<double> residuals(rows.size());
  double loss = 0.0, bias = 0.0, total_w = 0.0;
  ForEachRowDot(ctx, rows, params, [&](size_t i, size_t r, double dot) {
    const double w = RowWeight(ctx, r);
    const double p = Sigmoid(dot + params.back());
    if (probs != nullptr) (*probs)[i] = p;
    const int y = (*ctx.labels)[r];
    if constexpr (kWithLoss) {
      loss -= w * (y == 1 ? SafeLog(p) : SafeLog(1.0 - p));
    }
    residuals[i] = w * (p - static_cast<double>(y));
    bias += residuals[i];
    total_w += w;
  });
  FinishGradient(rows, residuals, bias, total_w, grad);
  return loss * (1.0 / total_w);
}

}  // namespace

double BceLoss(const LossContext& ctx, const RowSet& rows,
               const ParamVec& params) {
  double loss = 0.0, total_w = 0.0;
  ForEachRowDot(ctx, rows, params, [&](size_t, size_t r, double dot) {
    const double w = RowWeight(ctx, r);
    const double p = Sigmoid(dot + params.back());
    const int y = (*ctx.labels)[r];
    loss -= w * (y == 1 ? SafeLog(p) : SafeLog(1.0 - p));
    total_w += w;
  });
  return loss / total_w;
}

double BceLossGrad(const LossContext& ctx, const RowSet& rows,
                   const ParamVec& params, ParamVec* grad) {
  return BceGradImpl<true>(ctx, rows, params, grad, nullptr);
}

void BceGrad(const LossContext& ctx, const RowSet& rows,
             const ParamVec& params, ParamVec* grad,
             std::vector<double>* probs) {
  BceGradImpl<false>(ctx, rows, params, grad, probs);
}

void BceHvp(const LossContext& ctx, const RowSet& rows,
            const std::vector<double>& probs, const ParamVec& v,
            ParamVec* hv) {
  assert(probs.size() == rows.size());
  hv->resize(v.size());
  std::vector<double> coeffs(rows.size());
  double bias = 0.0, total_w = 0.0;
  ForEachRowDot(ctx, rows, v, [&](size_t i, size_t r, double dot) {
    const double w = RowWeight(ctx, r);
    const double s = probs[i] * (1.0 - probs[i]);
    const double xv = dot + v.back();
    coeffs[i] = w * s * xv;
    bias += coeffs[i];
    total_w += w;
  });
  FinishGradient(rows, coeffs, bias, total_w, hv);
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
