#include "train/meta_irm_nn.h"

#include <cmath>
#include <map>

#include "common/string_util.h"

namespace lightmirm::train {

using autodiff::Tensor;
using autodiff::Var;

std::vector<double> NnPredictor::Predict(const Tensor& features) const {
  const Var logits = mlp_.Forward(Var::Constant(features));
  std::vector<double> out(features.rows());
  for (size_t r = 0; r < out.size(); ++r) {
    const double z = logits.value().At(r, 0);
    out[r] = 1.0 / (1.0 + std::exp(-z));
  }
  return out;
}

Result<NnEnvData> NnEnvData::Build(const Matrix& features,
                                   const std::vector<int>& labels,
                                   const std::vector<int>& envs,
                                   size_t min_env_rows) {
  const size_t n = features.rows();
  if (labels.size() != n || envs.size() != n) {
    return Status::InvalidArgument("labels/envs size mismatch");
  }
  // Grouped by the ids present, in ascending order, so a large id costs
  // nothing.
  std::map<int, std::vector<size_t>> groups;
  for (size_t i = 0; i < n; ++i) {
    if (envs[i] < 0) return Status::InvalidArgument("negative env id");
    groups[envs[i]].push_back(i);
  }
  NnEnvData data;
  for (const auto& [env, rows] : groups) {
    if (rows.size() < min_env_rows) continue;
    Tensor x(rows.size(), features.cols());
    Tensor y(rows.size(), 1);
    for (size_t r = 0; r < rows.size(); ++r) {
      for (size_t c = 0; c < features.cols(); ++c) {
        x.At(r, c) = features.At(rows[r], c);
      }
      y.At(r, 0) = labels[rows[r]];
    }
    data.env_x.push_back(std::move(x));
    data.env_y.push_back(std::move(y));
  }
  if (data.env_x.size() < 2) {
    return Status::FailedPrecondition(
        "need at least two environments with enough rows");
  }
  return data;
}

namespace {

Var EnvLoss(const Tensor& x, const Tensor& y, const autodiff::nn::Mlp& mlp) {
  return autodiff::BceWithLogits(mlp.Forward(Var::Constant(x)),
                                 Var::Constant(y));
}

}  // namespace

Result<NnPredictor> TrainNnMetaIrm(const NnEnvData& data,
                                   size_t num_features,
                                   const NnMetaIrmOptions& options) {
  const size_t num_envs = data.env_x.size();
  if (options.inner_lr <= 0.0 || options.outer_lr <= 0.0) {
    return Status::InvalidArgument("learning rates must be positive");
  }
  for (const Tensor& x : data.env_x) {
    if (x.cols() != num_features) {
      return Status::InvalidArgument(
          StrFormat("env tensor has %zu features, expected %zu", x.cols(),
                    num_features));
    }
  }

  Rng rng(options.seed);
  std::vector<size_t> layers = {num_features};
  for (size_t h : options.hidden) layers.push_back(h);
  layers.push_back(1);
  LIGHTMIRM_ASSIGN_OR_RETURN(
      autodiff::nn::Mlp mlp,
      autodiff::nn::Mlp::Create(layers, options.init_scale, &rng,
                                options.activation));

  LIGHTMIRM_ASSIGN_OR_RETURN(
      MetaLossReplayQueue proto,
      MetaLossReplayQueue::Create(options.mrq_length, options.gamma));
  std::vector<MetaLossReplayQueue> queues(num_envs, proto);

  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    const std::vector<Var> params = mlp.Params();
    std::vector<Var> meta_loss_vars;   // differentiable parts
    std::vector<double> replayed(num_envs, 0.0);

    for (size_t m = 0; m < num_envs; ++m) {
      // Inner step on environment m (create_graph for second order).
      const Var inner = EnvLoss(data.env_x[m], data.env_y[m], mlp);
      LIGHTMIRM_ASSIGN_OR_RETURN(
          const std::vector<Var> inner_grads,
          autodiff::Grad(inner, params, {.create_graph = true}));
      std::vector<Var> adapted(params.size());
      for (size_t j = 0; j < params.size(); ++j) {
        adapted[j] = autodiff::Sub(
            params[j], autodiff::MulScalar(inner_grads[j], options.inner_lr));
      }
      LIGHTMIRM_ASSIGN_OR_RETURN(const autodiff::nn::Mlp adapted_mlp,
                                 mlp.WithParams(adapted));

      if (options.light) {
        // Environment sampling + replaying: only the sampled environment's
        // loss carries gradients; older queue entries are constants.
        size_t s = rng.UniformInt(num_envs - 1);
        if (s >= m) ++s;
        const Var sampled =
            EnvLoss(data.env_x[s], data.env_y[s], adapted_mlp);
        queues[m].Push(sampled.value().ScalarValue());
        replayed[m] = queues[m].ReplayedLoss();
        // Differentiable part: newest slot (weight gamma^0 = 1) plus the
        // constant remainder of the queue.
        const double history = replayed[m] - sampled.value().ScalarValue();
        meta_loss_vars.push_back(
            autodiff::AddScalar(sampled, history));
      } else {
        Var meta = Var::Scalar(0.0);
        for (size_t other = 0; other < num_envs; ++other) {
          if (other == m) continue;
          meta = autodiff::Add(
              meta, EnvLoss(data.env_x[other], data.env_y[other],
                            adapted_mlp));
        }
        replayed[m] = meta.value().ScalarValue();
        meta_loss_vars.push_back(meta);
      }
    }

    // Outer objective: sum of meta-losses + lambda * sigma.
    Var total = Var::Scalar(0.0);
    for (const Var& v : meta_loss_vars) total = autodiff::Add(total, v);
    if (options.lambda != 0.0 && num_envs > 1) {
      const Var sigma =
          autodiff::StdDev(autodiff::StackScalars(meta_loss_vars), 1e-12);
      total = autodiff::Add(total, autodiff::MulScalar(sigma, options.lambda));
    }
    LIGHTMIRM_ASSIGN_OR_RETURN(const std::vector<Var> grads,
                               autodiff::Grad(total, params));
    LIGHTMIRM_RETURN_NOT_OK(mlp.ApplySgd(grads, options.outer_lr));
  }
  return NnPredictor(std::move(mlp));
}

}  // namespace lightmirm::train
