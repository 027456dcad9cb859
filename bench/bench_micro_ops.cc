// Micro-benchmarks of the library's hot kernels: loss/gradient/HVP on
// sparse multi-hot features, GBDT histogram building and tree prediction,
// leaf encoding, metric computation, and autodiff tape overhead.
#include <benchmark/benchmark.h>

#include "autodiff/nn.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/loan_generator.h"
#include "gbdt/booster.h"
#include "gbdt/leaf_encoder.h"
#include "linear/loss.h"
#include "metrics/bootstrap.h"
#include "metrics/ks.h"
#include "metrics/roc.h"

using namespace lightmirm;

namespace {

linear::FeatureMatrix MakeSparse(size_t rows, size_t cols, size_t active) {
  Rng rng(11);
  std::vector<std::vector<uint32_t>> row_active(rows);
  for (auto& r : row_active) {
    for (size_t a = 0; a < active; ++a) {
      r.push_back(static_cast<uint32_t>(rng.UniformInt(cols)));
    }
  }
  return *linear::FeatureMatrix::FromSparseBinary(cols,
                                                  std::move(row_active));
}

void BM_BceLossGradSparse(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const linear::FeatureMatrix x = MakeSparse(rows, 2000, 60);
  Rng rng(2);
  std::vector<int> labels(rows);
  for (auto& y : labels) y = rng.Bernoulli(0.1) ? 1 : 0;
  linear::ParamVec params(2001, 0.01);
  const linear::LossContext ctx{&x, &labels, nullptr};
  const linear::RowSet all(x, linear::AllRows(rows));
  linear::ParamVec grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(linear::BceLossGrad(ctx, all, params, &grad));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows));
}

void BM_BceHvpSparse(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const linear::FeatureMatrix x = MakeSparse(rows, 2000, 60);
  Rng rng(2);
  std::vector<int> labels(rows);
  for (auto& y : labels) y = rng.Bernoulli(0.1) ? 1 : 0;
  linear::ParamVec params(2001, 0.01), v(2001, 0.5), grad, hv;
  const linear::LossContext ctx{&x, &labels, nullptr};
  const linear::RowSet all(x, linear::AllRows(rows));
  std::vector<double> probs;
  linear::BceGrad(ctx, all, params, &grad, &probs);
  for (auto _ : state) {
    linear::BceHvp(ctx, all, probs, v, &hv);
    benchmark::DoNotOptimize(hv.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(rows));
}

// The parallelized kernels take a thread count as their last benchmark
// argument (0 = hardware concurrency); outputs are identical at every
// value, only the wall clock changes.

void BM_LoanGeneration(benchmark::State& state) {
  ScopedDefaultThreads threads_guard(static_cast<int>(state.range(1)));
  data::LoanGeneratorOptions options;
  options.rows_per_year = static_cast<int>(state.range(0));
  const data::LoanGenerator gen(options);
  for (auto _ : state) {
    auto ds = gen.Generate();
    benchmark::DoNotOptimize(ds->NumRows());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 5);
}

void BM_BoosterTrain(benchmark::State& state) {
  ScopedDefaultThreads threads_guard(static_cast<int>(state.range(1)));
  data::LoanGeneratorOptions gen_options;
  gen_options.rows_per_year = 2000;
  const data::LoanGenerator gen(gen_options);
  const data::Dataset ds = *gen.Generate();
  gbdt::BoosterOptions options;
  options.num_trees = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto booster = gbdt::Booster::Train(ds.features(), ds.labels(), options);
    benchmark::DoNotOptimize(booster->TotalLeaves());
  }
}

void BM_LeafEncode(benchmark::State& state) {
  ScopedDefaultThreads threads_guard(static_cast<int>(state.range(0)));
  data::LoanGeneratorOptions gen_options;
  gen_options.rows_per_year = 2000;
  const data::LoanGenerator gen(gen_options);
  const data::Dataset ds = *gen.Generate();
  gbdt::BoosterOptions options;
  options.num_trees = 60;
  const auto booster = *gbdt::Booster::Train(ds.features(), ds.labels(),
                                             options);
  const gbdt::LeafEncoder encoder(&booster);
  for (auto _ : state) {
    auto encoded = encoder.Encode(ds.features());
    benchmark::DoNotOptimize(encoded->rows());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ds.NumRows()));
}

void BM_BootstrapKs(benchmark::State& state) {
  ScopedDefaultThreads threads_guard(static_cast<int>(state.range(1)));
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(4);
  std::vector<int> labels(n);
  std::vector<double> scores(n);
  for (size_t i = 0; i < n; ++i) {
    labels[i] = rng.Bernoulli(0.1) ? 1 : 0;
    scores[i] = rng.Uniform() + 0.3 * labels[i];
  }
  metrics::BootstrapOptions options;
  options.num_resamples = 200;
  for (auto _ : state) {
    auto ci = metrics::BootstrapKs(labels, scores, options);
    benchmark::DoNotOptimize(ci->point);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

void BM_AucKs(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(4);
  std::vector<int> labels(n);
  std::vector<double> scores(n);
  for (size_t i = 0; i < n; ++i) {
    labels[i] = rng.Bernoulli(0.1) ? 1 : 0;
    scores[i] = rng.Uniform() + 0.3 * labels[i];
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(*metrics::Auc(labels, scores));
    benchmark::DoNotOptimize(*metrics::KsStatistic(labels, scores));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

void BM_AutodiffMlpGrad(benchmark::State& state) {
  Rng rng(7);
  const size_t batch = static_cast<size_t>(state.range(0));
  auto mlp = *autodiff::nn::Mlp::Create({16, 32, 1}, 0.1, &rng);
  autodiff::Tensor xs(batch, 16), ys(batch, 1);
  for (auto& v : xs.data()) v = rng.Normal();
  for (auto& v : ys.data()) v = rng.Bernoulli(0.3) ? 1.0 : 0.0;
  const autodiff::Var x = autodiff::Var::Constant(xs);
  const autodiff::Var y = autodiff::Var::Constant(ys);
  for (auto _ : state) {
    const autodiff::Var loss = autodiff::BceWithLogits(mlp.Forward(x), y);
    auto grads = autodiff::Grad(loss, mlp.Params());
    benchmark::DoNotOptimize(grads->size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch));
}

}  // namespace

BENCHMARK(BM_BceLossGradSparse)->Arg(1000)->Arg(10000)->Arg(50000);
BENCHMARK(BM_BceHvpSparse)->Arg(1000)->Arg(10000)->Arg(50000);
// {workload size, threads}: threads=1 is the serial baseline, threads=0
// uses all hardware threads.
BENCHMARK(BM_LoanGeneration)
    ->ArgsProduct({{1000, 4000}, {1, 2, 0}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BoosterTrain)
    ->ArgsProduct({{10, 30}, {1, 2, 0}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LeafEncode)->Arg(1)->Arg(2)->Arg(0);
BENCHMARK(BM_BootstrapKs)->ArgsProduct({{20000}, {1, 2, 0}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AucKs)->Arg(10000)->Arg(100000);
BENCHMARK(BM_AutodiffMlpGrad)->Arg(64)->Arg(512);
