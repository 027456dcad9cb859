#include "train/erm.h"

namespace lightmirm::train {

Result<TrainedPredictor> ErmTrainer::Fit(const TrainData& data) {
  Rng rng(options_.seed);
  linear::LogisticModel model = linear::LogisticModel::RandomInit(
      data.x->cols(), options_.init_scale, &rng);
  LIGHTMIRM_ASSIGN_OR_RETURN(std::unique_ptr<linear::Optimizer> opt,
                             linear::Optimizer::Create(options_.optimizer));
  const linear::LossContext ctx = data.Context();
  const StepTelemetry telemetry = StepTelemetry::From(options_);
  linear::ParamVec grad;
  BestModelTracker tracker(&options_);
  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    {
      StepSpan epoch_span(telemetry, kStepEpoch, "epoch");
      StepSpan scope(telemetry, kStepBackward);
      linear::BceGrad(ctx, data.all_rows, model.params(), &grad);
      linear::AddL2(model.params(), options_.l2, &grad);
      opt->Step(grad, &model.mutable_params());
    }
    if (options_.epoch_callback) options_.epoch_callback(epoch, model);
    if (!tracker.Observe(model)) break;
  }
  tracker.Finalize(&model);
  TrainedPredictor predictor;
  predictor.global = std::move(model);
  return predictor;
}

}  // namespace lightmirm::train
