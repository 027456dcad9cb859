// Bit-equality of every parallelized component across thread counts: the
// deterministic-parallelism contract (DESIGN.md "Threading model") says the
// thread count may only change the wall clock, never a single output bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "data/loan_generator.h"
#include "gbdt/booster.h"
#include "gbdt/histogram.h"
#include "gbdt/leaf_encoder.h"
#include "linear/feature_matrix.h"
#include "linear/logistic.h"
#include "metrics/bootstrap.h"
#include "train/light_mirm.h"
#include "train/meta_irm.h"
#include "train/mrq.h"

namespace lightmirm {
namespace {

const int kThreadCounts[] = {1, 2, 8};

// A multi-environment problem large enough that every parallel loop in the
// LR-head trainers actually shards.
train::TrainData MakeProblem(linear::FeatureMatrix* x,
                             std::vector<int>* labels,
                             std::vector<int>* envs) {
  Rng rng(17);
  const size_t num_envs = 6, rows_per_env = 80;
  const size_t n = num_envs * rows_per_env;
  Matrix m(n, 3);
  labels->resize(n);
  envs->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t e = i % num_envs;
    (*envs)[i] = static_cast<int>(e);
    const double causal = rng.Normal();
    const int y = rng.Bernoulli(linear::Sigmoid(2.0 * causal)) ? 1 : 0;
    m.At(i, 0) = causal + 0.3 * rng.Normal();
    m.At(i, 1) = (y == 1 ? 1.0 : -1.0) * (e % 2 == 0 ? 1.0 : -1.0) +
                 0.5 * rng.Normal();
    m.At(i, 2) = rng.Normal();
    (*labels)[i] = y;
  }
  *x = linear::FeatureMatrix::FromDense(std::move(m));
  return std::move(train::TrainData::Create(x, labels, envs, 10)).value();
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// The summation order NodeHistogram::Build has always had, written
// serially: the node's rows in 2048-row shards, each shard summed in row
// order into a zeroed partial, the partials added to a zeroed histogram in
// shard order. Build must reproduce it bit for bit at any thread count.
std::vector<gbdt::BinStats> ReferenceHistogram(
    const gbdt::BinnedMatrix& binned, const std::vector<size_t>& rows,
    const std::vector<double>& grads, const std::vector<double>& hessians,
    size_t width) {
  constexpr size_t kRowGrain = 2048;
  std::vector<gbdt::BinStats> total(binned.num_features() * width);
  for (size_t begin = 0; begin < rows.size(); begin += kRowGrain) {
    const size_t end = std::min(rows.size(), begin + kRowGrain);
    std::vector<gbdt::BinStats> partial(total.size());
    for (size_t f = 0; f < binned.num_features(); ++f) {
      for (size_t i = begin; i < end; ++i) {
        const size_t r = rows[i];
        gbdt::BinStats& s = partial[f * width + binned.Bin(f, r)];
        s.grad += grads[r];
        s.hess += hessians[r];
        s.count += 1.0;
      }
    }
    for (size_t k = 0; k < total.size(); ++k) {
      total[k].grad += partial[k].grad;
      total[k].hess += partial[k].hess;
      total[k].count += partial[k].count;
    }
  }
  return total;
}

void ExpectHistogramBits(const std::vector<gbdt::BinStats>& expected,
                         const gbdt::NodeHistogram& hist,
                         const std::string& label) {
  const size_t width = static_cast<size_t>(hist.max_bins());
  for (size_t f = 0; f < hist.num_features(); ++f) {
    for (size_t b = 0; b < width; ++b) {
      const gbdt::BinStats& want = expected[f * width + b];
      const gbdt::BinStats& got = hist.At(f, static_cast<int>(b));
      ASSERT_EQ(Bits(want.grad), Bits(got.grad))
          << label << " feature " << f << " bin " << b;
      ASSERT_EQ(Bits(want.hess), Bits(got.hess))
          << label << " feature " << f << " bin " << b;
      ASSERT_EQ(Bits(want.count), Bits(got.count))
          << label << " feature " << f << " bin " << b;
    }
  }
}

TEST(ParallelEquivalenceTest, HistogramBuildAndSplit) {
  // 13 features, which no feature-block size from 2 to 12 divides. Node
  // sizes straddle the 2048-row shard: one row, one row short of a full
  // shard, exactly one shard, one row into a second shard, and three
  // shards.
  const size_t total_rows = 12000, cols = 13;
  Rng rng(5);
  Matrix raw(total_rows, cols);
  for (size_t r = 0; r < total_rows; ++r) {
    for (size_t c = 0; c < cols; ++c) raw.At(r, c) = rng.Normal();
  }
  const gbdt::BinnedMatrix binned = *gbdt::BinnedMatrix::Build(raw, 16);
  const size_t width = static_cast<size_t>(binned.MaxBinCount());
  std::vector<double> grads(total_rows), hessians(total_rows);
  for (size_t i = 0; i < total_rows; ++i) {
    grads[i] = rng.Normal();
    hessians[i] = rng.Uniform(0.05, 1.0);
  }
  std::vector<int> num_bins(cols);
  for (size_t f = 0; f < cols; ++f) {
    num_bins[f] = binned.mapper(f).num_bins();
  }
  std::vector<size_t> shuffled(total_rows);
  for (size_t i = 0; i < total_rows; ++i) shuffled[i] = i;
  rng.Shuffle(&shuffled);

  for (size_t n : {size_t{1}, size_t{2047}, size_t{2048}, size_t{2049},
                   size_t{5000}}) {
    // The first n rows, as at a root, and a sorted random subset, as at a
    // child node.
    std::vector<size_t> prefix(n);
    for (size_t i = 0; i < n; ++i) prefix[i] = i;
    std::vector<size_t> subset(shuffled.begin(), shuffled.begin() + n);
    std::sort(subset.begin(), subset.end());
    for (const std::vector<size_t>* rows : {&prefix, &subset}) {
      const std::string label =
          StrFormat("%s of %zu rows", rows == &prefix ? "prefix" : "subset",
                    n);
      const std::vector<gbdt::BinStats> expected =
          ReferenceHistogram(binned, *rows, grads, hessians, width);
      double node_grad = 0.0, node_hess = 0.0;
      for (size_t r : *rows) {
        node_grad += grads[r];
        node_hess += hessians[r];
      }
      gbdt::SplitOptions options;
      options.min_data_in_leaf = 1.0;
      std::vector<gbdt::SplitInfo> splits;
      for (int threads : kThreadCounts) {
        ScopedDefaultThreads guard(threads);
        gbdt::NodeHistogram hist(cols, static_cast<int>(width));
        hist.Build(binned, *rows, grads, hessians);
        ExpectHistogramBits(expected, hist,
                            label + StrFormat(" threads=%d", threads));
        splits.push_back(gbdt::FindBestSplit(hist, num_bins, node_grad,
                                             node_hess,
                                             static_cast<double>(n), options));
      }
      for (size_t i = 1; i < splits.size(); ++i) {
        EXPECT_EQ(splits[0].valid, splits[i].valid) << label;
        EXPECT_EQ(splits[0].feature, splits[i].feature) << label;
        EXPECT_EQ(splits[0].bin_threshold, splits[i].bin_threshold) << label;
        EXPECT_EQ(Bits(splits[0].gain), Bits(splits[i].gain)) << label;
      }
    }
  }

  // Subtraction is element-wise, into a separate histogram or in place.
  std::vector<size_t> all(total_rows), child(shuffled.begin(),
                                             shuffled.begin() + 5000);
  for (size_t i = 0; i < total_rows; ++i) all[i] = i;
  std::sort(child.begin(), child.end());
  std::vector<gbdt::BinStats> expected =
      ReferenceHistogram(binned, all, grads, hessians, width);
  const std::vector<gbdt::BinStats> child_sums =
      ReferenceHistogram(binned, child, grads, hessians, width);
  for (size_t k = 0; k < expected.size(); ++k) {
    expected[k].grad -= child_sums[k].grad;
    expected[k].hess -= child_sums[k].hess;
    expected[k].count -= child_sums[k].count;
  }
  for (int threads : kThreadCounts) {
    ScopedDefaultThreads guard(threads);
    gbdt::NodeHistogram parent(cols, static_cast<int>(width));
    gbdt::NodeHistogram small(cols, static_cast<int>(width));
    gbdt::NodeHistogram large(cols, static_cast<int>(width));
    parent.Build(binned, all, grads, hessians);
    small.Build(binned, child, grads, hessians);
    large.SubtractFrom(parent, small);
    ExpectHistogramBits(expected, large,
                        StrFormat("subtraction threads=%d", threads));
    parent.SubtractFrom(parent, small);
    ExpectHistogramBits(expected, parent,
                        StrFormat("in-place subtraction threads=%d", threads));
  }
}

TEST(ParallelEquivalenceTest, BinnedMatrixBuild) {
  // Continuous, few-valued and partly missing columns, more of them than
  // threads.
  Rng rng(3);
  const size_t rows = 3000, cols = 11;
  Matrix raw(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      switch (c % 3) {
        case 0:
          raw.At(r, c) = rng.Normal();
          break;
        case 1:
          raw.At(r, c) = static_cast<double>(rng.UniformInt(5));
          break;
        default:
          raw.At(r, c) = rng.Bernoulli(0.2) ? std::nan("") : rng.Uniform();
          break;
      }
    }
  }
  std::vector<gbdt::BinnedMatrix> built;
  for (int threads : kThreadCounts) {
    ScopedDefaultThreads guard(threads);
    built.push_back(*gbdt::BinnedMatrix::Build(raw, 32));
  }
  for (size_t i = 1; i < built.size(); ++i) {
    for (size_t f = 0; f < cols; ++f) {
      EXPECT_EQ(built[0].mapper(f).upper_bounds(),
                built[i].mapper(f).upper_bounds())
          << "threads=" << kThreadCounts[i] << " feature " << f;
      for (size_t r = 0; r < rows; ++r) {
        ASSERT_EQ(built[0].Bin(f, r), built[i].Bin(f, r))
            << "threads=" << kThreadCounts[i] << " feature " << f << " row "
            << r;
      }
    }
  }
}

TEST(ParallelEquivalenceTest, BoosterTrainAndPredict) {
  Rng rng(9);
  const size_t rows = 3000, cols = 5;
  Matrix raw(rows, cols);
  std::vector<int> labels(rows);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) raw.At(r, c) = rng.Normal();
    labels[r] = rng.Bernoulli(linear::Sigmoid(raw.At(r, 0))) ? 1 : 0;
  }
  gbdt::BoosterOptions options;
  options.num_trees = 8;

  std::vector<std::vector<double>> probs;
  std::vector<std::vector<double>> loss_histories;
  for (int threads : kThreadCounts) {
    ScopedDefaultThreads guard(threads);
    const gbdt::Booster booster =
        *gbdt::Booster::Train(raw, labels, options);
    probs.push_back(booster.PredictProbs(raw));
    loss_histories.push_back(booster.train_loss_history());
  }
  for (size_t i = 1; i < probs.size(); ++i) {
    EXPECT_EQ(probs[0], probs[i]) << "threads=" << kThreadCounts[i];
    EXPECT_EQ(loss_histories[0], loss_histories[i]);
  }
}

TEST(ParallelEquivalenceTest, LeafEncoding) {
  Rng rng(13);
  const size_t rows = 2500, cols = 4;
  Matrix raw(rows, cols);
  std::vector<int> labels(rows);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) raw.At(r, c) = rng.Normal();
    labels[r] = rng.Bernoulli(0.3) ? 1 : 0;
  }
  gbdt::BoosterOptions options;
  options.num_trees = 6;
  const gbdt::Booster booster = *gbdt::Booster::Train(raw, labels, options);
  const gbdt::LeafEncoder encoder(&booster);

  std::vector<linear::FeatureMatrix> encoded;
  for (int threads : kThreadCounts) {
    ScopedDefaultThreads guard(threads);
    encoded.push_back(*encoder.Encode(raw));
  }
  for (size_t i = 1; i < encoded.size(); ++i) {
    ASSERT_EQ(encoded[0].rows(), encoded[i].rows());
    for (size_t r = 0; r < encoded[0].rows(); ++r) {
      const auto want = encoded[0].SparseRow(r), got = encoded[i].SparseRow(r);
      EXPECT_EQ(std::vector<uint32_t>(want.begin(), want.end()),
                std::vector<uint32_t>(got.begin(), got.end()));
    }
  }
}

TEST(ParallelEquivalenceTest, BootstrapConfidenceIntervals) {
  Rng rng(21);
  const size_t n = 4000;
  std::vector<int> labels(n);
  std::vector<double> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    labels[i] = rng.Bernoulli(0.15) ? 1 : 0;
    a[i] = rng.Uniform() + 0.4 * labels[i];
    b[i] = rng.Uniform() + 0.3 * labels[i];
  }
  metrics::BootstrapOptions options;
  options.num_resamples = 120;

  std::vector<metrics::ConfidenceInterval> ks_cis, auc_cis;
  std::vector<double> win_rates;
  for (int threads : kThreadCounts) {
    ScopedDefaultThreads guard(threads);
    ks_cis.push_back(*metrics::BootstrapKs(labels, a, options));
    auc_cis.push_back(*metrics::BootstrapAuc(labels, a, options));
    win_rates.push_back(*metrics::PairedKsWinRate(labels, a, b, options));
  }
  for (size_t i = 1; i < ks_cis.size(); ++i) {
    EXPECT_EQ(ks_cis[0].point, ks_cis[i].point);
    EXPECT_EQ(ks_cis[0].lo, ks_cis[i].lo);
    EXPECT_EQ(ks_cis[0].hi, ks_cis[i].hi);
    EXPECT_EQ(auc_cis[0].lo, auc_cis[i].lo);
    EXPECT_EQ(auc_cis[0].hi, auc_cis[i].hi);
    EXPECT_EQ(win_rates[0], win_rates[i]);
  }
}

TEST(ParallelEquivalenceTest, LightMirmStepAndFit) {
  linear::FeatureMatrix x;
  std::vector<int> labels, envs;
  const train::TrainData data = MakeProblem(&x, &labels, &envs);
  const linear::LossContext ctx = data.Context();
  linear::ParamVec params(x.cols() + 1, 0.05);

  train::LightMirmOptions light;
  light.mrq_length = 3;

  // One outer step: identical meta-losses and outer gradient.
  std::vector<train::MetaStepOutput> steps;
  for (int threads : kThreadCounts) {
    ScopedDefaultThreads guard(threads);
    std::vector<train::MetaLossReplayQueue> queues(
        data.NumTasks(),
        *train::MetaLossReplayQueue::Create(light.mrq_length, light.gamma));
    train::MetaStepOutput out;
    Rng rng(7);
    for (int it = 0; it < 4; ++it) {
      ASSERT_TRUE(train::LightMirmOuterGradient(ctx, data, params, light,
                                                &rng, train::StepTelemetry{},
                                                &queues, &out)
                      .ok());
    }
    steps.push_back(out);
  }
  for (size_t i = 1; i < steps.size(); ++i) {
    EXPECT_EQ(steps[0].meta_losses, steps[i].meta_losses);
    EXPECT_EQ(steps[0].outer_grad, steps[i].outer_grad);
  }

  // Full training runs land on identical parameters.
  train::TrainerOptions options;
  options.epochs = 25;
  std::vector<linear::ParamVec> fitted;
  for (int threads : kThreadCounts) {
    options.threads = threads;
    ScopedDefaultThreads guard(threads);
    train::LightMirmTrainer trainer(options, light);
    fitted.push_back(trainer.Fit(data)->global.params());
  }
  for (size_t i = 1; i < fitted.size(); ++i) {
    EXPECT_EQ(fitted[0], fitted[i]);
  }
}

TEST(ParallelEquivalenceTest, MetaIrmStepCompleteAndSampled) {
  linear::FeatureMatrix x;
  std::vector<int> labels, envs;
  const train::TrainData data = MakeProblem(&x, &labels, &envs);
  const linear::LossContext ctx = data.Context();
  linear::ParamVec params(x.cols() + 1, -0.03);

  for (int sample_size : {0, 3}) {
    train::MetaIrmOptions meta;
    meta.sample_size = sample_size;
    std::vector<train::MetaStepOutput> steps;
    for (int threads : kThreadCounts) {
      ScopedDefaultThreads guard(threads);
      train::MetaStepOutput out;
      Rng rng(11);
      for (int it = 0; it < 3; ++it) {
        ASSERT_TRUE(train::MetaIrmOuterGradient(ctx, data, params, meta,
                                                &rng, train::StepTelemetry{},
                                                &out)
                        .ok());
      }
      steps.push_back(out);
    }
    for (size_t i = 1; i < steps.size(); ++i) {
      EXPECT_EQ(steps[0].meta_losses, steps[i].meta_losses)
          << "sample_size=" << sample_size;
      EXPECT_EQ(steps[0].outer_grad, steps[i].outer_grad)
          << "sample_size=" << sample_size;
    }
  }
}

TEST(ParallelEquivalenceTest, LoanGeneratorDataset) {
  data::LoanGeneratorOptions options;
  // 1200 rows/year x 5 years = 6000 rows -> 3 shards at grain 2048.
  options.rows_per_year = 1200;
  const data::LoanGenerator gen(options);

  std::vector<data::Dataset> datasets;
  std::vector<std::vector<double>> logits;
  for (int threads : kThreadCounts) {
    ScopedDefaultThreads guard(threads);
    std::vector<double> true_logits;
    datasets.push_back(*gen.Generate(&true_logits));
    logits.push_back(std::move(true_logits));
  }
  for (size_t i = 1; i < datasets.size(); ++i) {
    const data::Dataset& d0 = datasets[0];
    const data::Dataset& di = datasets[i];
    ASSERT_EQ(d0.NumRows(), di.NumRows());
    EXPECT_EQ(d0.labels(), di.labels());
    EXPECT_EQ(d0.envs(), di.envs());
    EXPECT_EQ(d0.years(), di.years());
    EXPECT_EQ(d0.halves(), di.halves());
    EXPECT_EQ(logits[0], logits[i]);
    for (size_t r = 0; r < d0.NumRows(); ++r) {
      for (size_t c = 0; c < d0.NumFeatures(); ++c) {
        ASSERT_EQ(d0.features().At(r, c), di.features().At(r, c))
            << "row " << r << " col " << c;
      }
    }
  }
}

}  // namespace
}  // namespace lightmirm
