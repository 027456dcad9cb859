#include "train/up_sampling.h"

#include <algorithm>

#include "train/erm.h"

namespace lightmirm::train {

Result<TrainedPredictor> UpSamplingTrainer::Fit(const TrainData& data) {
  if (up_.target_fraction <= 0.0 || up_.target_fraction > 1.0) {
    return Status::InvalidArgument("target_fraction must be in (0,1]");
  }
  size_t max_count = 0;
  for (const auto& rows : data.env_rows) {
    max_count = std::max(max_count, rows.size());
  }
  const double target =
      up_.target_fraction * static_cast<double>(max_count);

  std::vector<double> weights(data.x->rows(), 1.0);
  for (const auto& rows : data.env_rows) {
    const double count = static_cast<double>(rows.size());
    if (count >= target) continue;
    const double w = target / count;
    for (size_t r : rows) weights[r] = w;
  }
  if (up_.target_pos_rate > 0.0 && up_.target_pos_rate < 1.0) {
    double pos_w = 0.0, total_w = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
      total_w += weights[i];
      if ((*data.labels)[i] == 1) pos_w += weights[i];
    }
    if (pos_w > 0.0 && pos_w < total_w) {
      const double pos_scale = up_.target_pos_rate / (pos_w / total_w);
      const double neg_scale =
          (1.0 - up_.target_pos_rate) / (1.0 - pos_w / total_w);
      for (size_t i = 0; i < weights.size(); ++i) {
        weights[i] *= (*data.labels)[i] == 1 ? pos_scale : neg_scale;
      }
    }
  }
  // Fold pre-existing weights in (if any) and run weighted ERM.
  if (data.weights != nullptr) {
    for (size_t i = 0; i < weights.size(); ++i) {
      weights[i] *= (*data.weights)[i];
    }
  }
  return ErmTrainer(options_).FitWeighted(data, &weights);
}

}  // namespace lightmirm::train
