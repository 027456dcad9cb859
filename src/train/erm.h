// ERM baseline: minimizes the pooled binary cross-entropy over all
// environments (the conventional learning paradigm the paper argues lacks
// minimax fairness).
#pragma once

#include <vector>

#include "train/trainer.h"

namespace lightmirm::train {

/// Full-batch ERM over the pooled training rows.
class ErmTrainer : public Trainer {
 public:
  explicit ErmTrainer(TrainerOptions options) : options_(std::move(options)) {}

  std::string Name() const override { return "ERM"; }
  Result<TrainedPredictor> Fit(const TrainData& data) override {
    return FitWeighted(data, data.weights);
  }

  /// Fits with per-row `weights` in place of data.weights (nullptr = all
  /// ones), as Up-sampling's re-weighted ERM does.
  Result<TrainedPredictor> FitWeighted(const TrainData& data,
                                       const std::vector<double>* weights);

  const TrainerOptions& options() const { return options_; }

 private:
  TrainerOptions options_;
};

}  // namespace lightmirm::train
