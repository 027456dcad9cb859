#include "gbdt/booster.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "linear/logistic.h"

namespace lightmirm::gbdt {
namespace {

// Rows per shard of the row-parallel loops (gradient refresh, score
// update, batch prediction). Fixed grain + ordered merge of shard partials
// keeps every result bit-identical at any thread count.
constexpr size_t kRowGrain = 4096;

}  // namespace

Booster::Booster(double base_score, std::vector<Tree> trees)
    : base_score_(base_score), trees_(std::move(trees)) {}

Result<Booster> Booster::Train(const Matrix& features,
                               const std::vector<int>& labels,
                               const BoosterOptions& options) {
  const size_t n = features.rows();
  if (n == 0) return Status::InvalidArgument("no training rows");
  if (labels.size() != n) {
    return Status::InvalidArgument(
        StrFormat("labels size %zu != rows %zu", labels.size(), n));
  }
  if (options.num_trees < 1) {
    return Status::InvalidArgument("num_trees must be >= 1");
  }
  if (options.bagging_fraction <= 0.0 || options.bagging_fraction > 1.0) {
    return Status::InvalidArgument("bagging_fraction must be in (0,1]");
  }
  double pos = 0.0;
  for (int y : labels) {
    if (y != 0 && y != 1) {
      return Status::InvalidArgument("labels must be 0/1");
    }
    pos += y;
  }
  if (pos == 0.0 || pos == static_cast<double>(n)) {
    return Status::FailedPrecondition("need both classes to boost");
  }

  LIGHTMIRM_ASSIGN_OR_RETURN(const BinnedMatrix binned,
                             BinnedMatrix::Build(features, options.max_bins));

  Booster booster;
  const double base_rate = pos / static_cast<double>(n);
  booster.base_score_ = std::log(base_rate / (1.0 - base_rate));

  std::vector<double> scores(n, booster.base_score_);
  std::vector<double> grads(n), hessians(n);
  Rng rng(options.seed);
  std::vector<size_t> all_rows(n);
  for (size_t i = 0; i < n; ++i) all_rows[i] = i;

  // Scoped to this call: no histogram outlives the run.
  HistogramFreeList free_list;
  std::vector<std::vector<size_t>> leaf_rows;
  std::vector<double> shard_loss(NumShards(n, kRowGrain));
  for (int t = 0; t < options.num_trees; ++t) {
    ParallelForShards(0, n, kRowGrain,
                      [&](size_t shard, size_t begin, size_t end) {
                        double loss = 0.0;
                        for (size_t i = begin; i < end; ++i) {
                          const double p = linear::Sigmoid(scores[i]);
                          const double y = static_cast<double>(labels[i]);
                          grads[i] = p - y;
                          hessians[i] = std::max(p * (1.0 - p), 1e-12);
                          loss -= y * std::log(std::max(p, 1e-12)) +
                                  (1.0 - y) *
                                      std::log(std::max(1.0 - p, 1e-12));
                        }
                        shard_loss[shard] = loss;
                      });
    double loss = 0.0;
    for (double part : shard_loss) loss += part;  // fixed shard order
    booster.train_loss_history_.push_back(loss / static_cast<double>(n));

    std::vector<size_t>* rows = &all_rows;
    std::vector<size_t> bagged;
    if (options.bagging_fraction < 1.0) {
      const size_t keep = std::max<size_t>(
          1, static_cast<size_t>(options.bagging_fraction *
                                 static_cast<double>(n)));
      bagged = all_rows;
      rng.Shuffle(&bagged);
      bagged.resize(keep);
      std::sort(bagged.begin(), bagged.end());
      rows = &bagged;
    }

    LIGHTMIRM_ASSIGN_OR_RETURN(
        Tree tree, GrowTree(binned, *rows, grads, hessians, options.tree,
                            &rng, &free_list, &leaf_rows));
    if (rows == &all_rows) {
      // Every row sits in the leaf the tree's Predict would reach, so
      // adding the leaf's value row by row gives the same bits.
      for (const TreeNode& node : tree.nodes()) {
        if (!node.is_leaf) continue;
        for (size_t i : leaf_rows[static_cast<size_t>(node.leaf_ordinal)]) {
          scores[i] += node.leaf_value;
        }
      }
    } else {
      ParallelFor(0, n, kRowGrain, [&](size_t i) {
        scores[i] += tree.Predict(features.Row(i));
      });
    }
    booster.trees_.push_back(std::move(tree));
  }
  return booster;
}

double Booster::PredictLogit(const double* row) const {
  double score = base_score_;
  for (const Tree& tree : trees_) score += tree.Predict(row);
  return score;
}

double Booster::PredictProb(const double* row) const {
  return linear::Sigmoid(PredictLogit(row));
}

std::vector<double> Booster::PredictProbs(const Matrix& features) const {
  std::vector<double> out(features.rows());
  // Row-parallel batch scoring: rows are independent and written to
  // disjoint slots, so the output is identical at any thread count.
  ParallelFor(0, features.rows(), kRowGrain,
              [&](size_t r) { out[r] = PredictProb(features.Row(r)); });
  return out;
}

void Booster::PredictLeaves(const double* row,
                            std::vector<int>* leaves) const {
  leaves->resize(trees_.size());
  for (size_t t = 0; t < trees_.size(); ++t) {
    (*leaves)[t] = trees_[t].PredictLeaf(row);
  }
}

int Booster::TotalLeaves() const {
  int total = 0;
  for (const Tree& tree : trees_) total += tree.num_leaves();
  return total;
}

size_t Booster::MinFeatureCount() const {
  // In size_t: a loaded split may read feature INT_MAX.
  size_t count = 0;
  for (const Tree& tree : trees_) {
    if (tree.max_feature_index() >= 0) {
      count = std::max(count,
                       static_cast<size_t>(tree.max_feature_index()) + 1);
    }
  }
  return count;
}

}  // namespace lightmirm::gbdt
