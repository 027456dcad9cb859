// Binary cross-entropy risk kernels for logistic regression over row
// subsets (environments). These are the atomic operations of Algorithms 1
// and 2 in the paper. Each kernel first makes one pass over its rows: it
// takes the dot products of a block of rows together
// (FeatureMatrix::RowDots), then finishes the rows one at a time in row
// order (sigmoid, one gradient coefficient per row, and the bias, loss and
// weight sums). The gradient kernels then sum the coefficients per column
// along the RowSet's column index (RowSet::ColumnSums). Every sum keeps
// the association of a plain per-row loop:
//   R^m(D_m; theta)            -> BceLoss over the rows of environment m
//   grad_theta R^m(D_m; theta) -> BceLossGrad
//   H^m(theta) * v             -> BceHvp (exact logistic Hessian-vector
//                                 product, used for second-order MAML)
#pragma once

#include <vector>

#include "common/result.h"
#include "linear/logistic.h"
#include "linear/row_set.h"

namespace lightmirm::linear {

/// Bundles the design matrix, labels and optional per-row weights; all
/// loss kernels index into these through a RowSet of that matrix, so
/// per-environment losses never copy data.
struct LossContext {
  const FeatureMatrix* x = nullptr;
  const std::vector<int>* labels = nullptr;
  /// Optional per-row weights (full length); nullptr means all-ones.
  const std::vector<double>* weights = nullptr;
};

/// Weighted mean BCE over `rows` (Eq. 4). Rows must be non-empty.
double BceLoss(const LossContext& ctx, const RowSet& rows,
               const ParamVec& params);

/// Computes the loss and writes the gradient (size params.size(), bias
/// last) into `grad`. Returns the loss.
double BceLossGrad(const LossContext& ctx, const RowSet& rows,
                   const ParamVec& params, ParamVec* grad);

/// The gradient of BceLossGrad, bit for bit, without computing the loss
/// (the MAML inner step discards it). When `probs` is set it receives
/// p_i = sigmoid(theta^T x_i + b) for each of `rows`, in order: the
/// probabilities BceHvp takes at the same `params`.
void BceGrad(const LossContext& ctx, const RowSet& rows,
             const ParamVec& params, ParamVec* grad,
             std::vector<double>* probs = nullptr);

/// Exact Hessian-vector product of the mean BCE at the parameters that
/// gave `probs` (p_i for each of `rows`, in order, as BceGrad writes them):
///   hv = [ (1/W) sum_i w_i s_i x_i (x_i^T v + v_b) ;
///          (1/W) sum_i w_i s_i (x_i^T v + v_b) ]
/// with s_i = p_i (1 - p_i). `hv` is resized to v.size().
void BceHvp(const LossContext& ctx, const RowSet& rows,
            const std::vector<double>& probs, const ParamVec& v,
            ParamVec* hv);

/// Adds the L2 penalty 0.5*l2*|theta|^2 (bias excluded) to `loss` and its
/// gradient l2*theta to `grad` (grad may be null to skip).
double AddL2(const ParamVec& params, double l2, ParamVec* grad);

/// All row indices [0, n).
std::vector<size_t> AllRows(size_t n);

}  // namespace lightmirm::linear
