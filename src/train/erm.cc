#include "train/erm.h"

namespace lightmirm::train {

Result<TrainedPredictor> ErmTrainer::FitWeighted(
    const TrainData& data, const std::vector<double>* weights) {
  const linear::LossContext ctx{data.x, data.labels, weights};
  const linear::RowSet pooled(*data.x, data.all_rows);
  const StepTelemetry telemetry = StepTelemetry::From(options_);
  return FitByEpochs(
      options_, data, options_.l2, {},
      [&](int, const linear::ParamVec& params, Rng*, EpochGradient* out) {
        StepSpan scope(telemetry, kStepBackward);
        linear::BceGrad(ctx, pooled, params, &out->grad);
        return Status::OK();
      });
}

}  // namespace lightmirm::train
