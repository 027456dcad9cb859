#include "linear/logistic.h"

#include <cmath>

#include "common/thread_pool.h"

namespace lightmirm::linear {
namespace {

// Rows per shard of PredictRows. The validation set scored after every
// training epoch (4,800 held-out rows in the repository benchmark) splits
// into ten shards; on 4 threads, 512 read as fast as 256 or 1024 and
// faster than 2048.
constexpr size_t kPredictRowGrain = 512;

}  // namespace

double Sigmoid(double x) {
  if (x >= 0.0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

LogisticModel::LogisticModel(size_t num_features)
    : params_(num_features + 1, 0.0) {}

LogisticModel LogisticModel::RandomInit(size_t num_features,
                                        double init_scale, Rng* rng) {
  LogisticModel model(num_features);
  for (double& p : model.params_) p = rng->Normal(0.0, init_scale);
  return model;
}

double LogisticModel::PredictRow(const FeatureMatrix& x, size_t r) const {
  return Sigmoid(x.RowDot(r, params_) + params_.back());
}

std::vector<double> LogisticModel::Predict(const FeatureMatrix& x) const {
  std::vector<double> out(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) out[r] = PredictRow(x, r);
  return out;
}

std::vector<double> LogisticModel::PredictRows(
    const FeatureMatrix& x, const std::vector<size_t>& rows) const {
  std::vector<double> out(rows.size());
  // Fixed-grain shards write disjoint slots: the same bits at any thread
  // count.
  ParallelForShards(0, rows.size(), kPredictRowGrain,
                    [&](size_t, size_t begin, size_t end) {
                      x.RowDots(rows.data() + begin, end - begin, params_,
                                out.data() + begin);
                      for (size_t i = begin; i < end; ++i) {
                        out[i] = Sigmoid(out[i] + params_.back());
                      }
                    });
  return out;
}

}  // namespace lightmirm::linear
