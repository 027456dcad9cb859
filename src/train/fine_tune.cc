#include "train/fine_tune.h"

namespace lightmirm::train {

Result<TrainedPredictor> FineTuneTrainer::Fit(const TrainData& data) {
  ErmTrainer erm(options_);
  LIGHTMIRM_ASSIGN_OR_RETURN(TrainedPredictor predictor, erm.Fit(data));

  const linear::LossContext ctx = data.Context();
  const linear::ParamVec& base = predictor.global.params();
  linear::ParamVec grad;
  for (size_t t = 0; t < data.NumTasks(); ++t) {
    linear::LogisticModel env_model = predictor.global;
    linear::OptimizerOptions opt_options = options_.optimizer;
    opt_options.learning_rate = ft_.fine_tune_lr;
    LIGHTMIRM_ASSIGN_OR_RETURN(linear::Adam adam,
                               linear::Adam::Create(opt_options));
    for (int epoch = 0; epoch < ft_.fine_tune_epochs; ++epoch) {
      linear::BceGrad(ctx, data.env_rows[t], env_model.params(), &grad);
      linear::AddL2(env_model.params(), options_.l2, &grad);
      // Proximal pull toward the pooled solution.
      if (ft_.proximal > 0.0) {
        for (size_t j = 0; j < grad.size(); ++j) {
          grad[j] += ft_.proximal * (env_model.params()[j] - base[j]);
        }
      }
      adam.Step(grad, &env_model.mutable_params());
    }
    predictor.per_env.emplace(data.env_ids[t], std::move(env_model));
  }
  return predictor;
}

}  // namespace lightmirm::train
