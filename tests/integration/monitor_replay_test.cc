// End-to-end replay through the serving path: train a model on 2016-2019,
// then stream data period by period with a ModelHealthMonitor.
//   * replaying held-in 2019 data keeps every monitor OK (no false alarms);
//   * replaying 2020 fires ALERTs for Hubei (Fig 11 COVID shock) and
//     Guangdong (Fig 10 share shift + the 2020 spurious-pattern flip);
//   * snapshots are identical at any thread count;
//   * predictions are bit-identical with monitoring attached or detached.
// Out-of-core replay: stream the generator into a compressed column store,
// replay the 2020 timeline from disk chunk by chunk, and compare against
// the in-RAM ReplayStream over the same rows.
//   * lossless store: decoded rows are bit-identical, so everything is;
//   * serving-grid store (a few bits per value): the *features* differ but
//     every forest comparison is preserved, so scores — and with them all
//     monitor verdicts — stay bit-identical, on the scalar and SIMD
//     kernels alike;
//   * chunk skipping via the year index never changes the result;
//   * both entry points reject the same bad arguments.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/gbdt_lr_model.h"
#include "data/column_store.h"
#include "data/env_split.h"
#include "data/loan_generator.h"
#include "obs/monitor.h"
#include "obs/replay.h"
#include "serve/quantized_forest.h"
#include "serve/simd_dispatch.h"

namespace lightmirm {
namespace {

data::LoanGeneratorOptions GeneratorOptions(int rows_per_year) {
  data::LoanGeneratorOptions gen;
  gen.rows_per_year = rows_per_year;
  gen.seed = 7;
  return gen;
}

core::GbdtLrOptions FastModelOptions() {
  core::GbdtLrOptions options;
  options.booster.num_trees = 15;
  options.booster.tree.max_leaves = 8;
  options.trainer.epochs = 40;
  options.min_env_rows = 60;
  return options;
}

// Monitor tuning for this replay's scale: one half-year gives a mid-sized
// province only a few hundred rows, so the evaluation gates admit windows
// from ~150 rows and the thresholds leave room for the sampling noise of
// estimates that small (the defaults assume production windows of
// thousands of rows).
obs::MonitorOptions ReplayMonitorOptions() {
  obs::MonitorOptions options;
  options.window = 2048;
  options.min_rows = 150;
  options.min_labeled = 150;
  options.fairness_min_labeled = 300;
  options.psi = {0.15, 0.3, 0.2};
  options.drift_ks = {0.15, 0.25, 0.2};
  options.default_rate_rise = {0.6, 1.2, 0.2};
  options.auc_drop = {0.1, 0.18, 0.2};
  options.ks_drop = {0.25, 0.4, 0.2};
  return options;
}

// Rows of `full` with the given year.
data::Dataset YearSlice(const data::Dataset& full, int year) {
  std::vector<size_t> rows;
  for (size_t i = 0; i < full.NumRows(); ++i) {
    if (full.years()[i] == year) rows.push_back(i);
  }
  auto slice = full.Select(rows);
  EXPECT_TRUE(slice.ok());
  return std::move(*slice);
}

void ExpectSameSignal(const obs::SignalHealth& a, const obs::SignalHealth& b) {
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.value, b.value);  // bit-identical, not approximately equal
}

void ExpectSameWindow(const obs::WindowHealth& a, const obs::WindowHealth& b) {
  EXPECT_EQ(a.seen, b.seen);
  EXPECT_EQ(a.window_rows, b.window_rows);
  EXPECT_EQ(a.labeled_rows, b.labeled_rows);
  EXPECT_EQ(a.default_rate, b.default_rate);
  EXPECT_EQ(a.auc, b.auc);
  EXPECT_EQ(a.ks, b.ks);
  ExpectSameSignal(a.psi, b.psi);
  ExpectSameSignal(a.drift_ks, b.drift_ks);
  ExpectSameSignal(a.default_rate_rise, b.default_rate_rise);
  ExpectSameSignal(a.auc_drop, b.auc_drop);
  ExpectSameSignal(a.ks_drop, b.ks_drop);
  ExpectSameSignal(a.calibration, b.calibration);
  EXPECT_EQ(a.overall, b.overall);
}

void ExpectSameReplay(const obs::ReplayResult& a, const obs::ReplayResult& b) {
  ASSERT_EQ(a.periods.size(), b.periods.size());
  for (size_t p = 0; p < a.periods.size(); ++p) {
    const obs::ReplayPeriod& x = a.periods[p];
    const obs::ReplayPeriod& y = b.periods[p];
    EXPECT_EQ(x.year, y.year);
    EXPECT_EQ(x.half, y.half);
    EXPECT_EQ(x.rows, y.rows);
    ExpectSameWindow(x.health.global, y.health.global);
    ASSERT_EQ(x.health.per_env.size(), y.health.per_env.size());
    for (const auto& [env, health] : x.health.per_env) {
      ASSERT_EQ(y.health.per_env.count(env), 1u);
      ExpectSameWindow(health, y.health.per_env.at(env));
    }
    ExpectSameSignal(x.health.fairness_gap, y.health.fairness_gap);
    EXPECT_EQ(x.health.fairness_envs, y.health.fairness_envs);
    EXPECT_EQ(x.health.overall, y.health.overall);
  }
}

// 2,000 rows a year, an ERM model trained on 2016-2019, and the 2020 rows.
struct TrainedSetup {
  data::Dataset full;
  data::Dataset test;
  core::GbdtLrModel model;
};

TrainedSetup TrainSetup() {
  data::LoanGenerator generator(GeneratorOptions(2000));
  auto full = generator.Generate();
  EXPECT_TRUE(full.ok());
  auto split = data::TemporalSplit(*full, 2020);
  EXPECT_TRUE(split.ok());
  auto model = core::GbdtLrModel::Train(split->train, core::Method::kErm,
                                        FastModelOptions());
  EXPECT_TRUE(model.ok());
  return {std::move(*full), std::move(split->test), std::move(*model)};
}

TEST(MonitorReplayTest, QuietOn2019AlertingOn2020Shifts) {
  data::LoanGenerator generator(GeneratorOptions(6000));
  auto full = generator.Generate();
  ASSERT_TRUE(full.ok());
  auto split = data::TemporalSplit(*full, 2020);
  ASSERT_TRUE(split.ok());
  auto model = core::GbdtLrModel::Train(split->train, core::Method::kErm,
                                        FastModelOptions());
  ASSERT_TRUE(model.ok());
  ASSERT_FALSE(model->score_reference().empty());
  const auto session = model->scoring_session();
  ASSERT_NE(session, nullptr);

  const int guangdong = *data::LoanGenerator::ProvinceIndex("Guangdong");
  const int hubei = *data::LoanGenerator::ProvinceIndex("Hubei");

  // Stationary stream: the last training year. Nothing may leave OK.
  {
    auto monitor = obs::ModelHealthMonitor::Create(model->score_reference(),
                                                   ReplayMonitorOptions());
    ASSERT_TRUE(monitor.ok());
    auto replay = obs::ReplayStream(*session, monitor->get(),
                                    YearSlice(*full, 2019));
    ASSERT_TRUE(replay.ok());
    ASSERT_EQ(replay->periods.size(), 2u);  // H1 + H2
    EXPECT_EQ(replay->WorstOverall(), obs::AlertState::kOk);
  }

  // Shifted stream: the 2020 test year.
  {
    auto monitor = obs::ModelHealthMonitor::Create(model->score_reference(),
                                                   ReplayMonitorOptions());
    ASSERT_TRUE(monitor.ok());
    auto replay = obs::ReplayStream(*session, monitor->get(),
                                    YearSlice(*full, 2020));
    ASSERT_TRUE(replay.ok());
    ASSERT_EQ(replay->periods.size(), 2u);
    EXPECT_TRUE(replay->ReachedAlert(hubei));      // Fig 11 COVID shock
    EXPECT_TRUE(replay->ReachedAlert(guangdong));  // Fig 10 + spurious flip
    EXPECT_EQ(replay->WorstOverall(), obs::AlertState::kAlert);
    // The COVID shock lands in H1-2020 specifically.
    const auto& h1 = replay->periods.front();
    ASSERT_EQ(h1.year, 2020);
    ASSERT_EQ(h1.half, 1);
    ASSERT_EQ(h1.health.per_env.count(hubei), 1u);
    EXPECT_EQ(h1.health.per_env.at(hubei).overall, obs::AlertState::kAlert);
  }
}

TEST(MonitorReplayTest, SnapshotsAreThreadCountInvariant) {
  const TrainedSetup setup = TrainSetup();
  const auto session = setup.model.scoring_session();
  ASSERT_NE(session, nullptr);

  std::vector<obs::ReplayResult> runs;
  for (const int threads : {1, 2, 8}) {
    ScopedDefaultThreads guard(threads);
    auto monitor = obs::ModelHealthMonitor::Create(
        setup.model.score_reference(), ReplayMonitorOptions());
    ASSERT_TRUE(monitor.ok());
    auto replay = obs::ReplayStream(*session, monitor->get(),
                                    YearSlice(setup.full, 2020));
    ASSERT_TRUE(replay.ok());
    runs.push_back(std::move(*replay));
  }
  for (size_t r = 1; r < runs.size(); ++r) ExpectSameReplay(runs[0], runs[r]);
}

TEST(MonitorReplayTest, MonitoringNeverChangesPredictions) {
  const TrainedSetup setup = TrainSetup();
  const auto session = setup.model.scoring_session();
  ASSERT_NE(session, nullptr);
  ASSERT_EQ(session->monitor(), nullptr);

  auto detached = setup.model.Predict(setup.test);
  ASSERT_TRUE(detached.ok());

  // StartMonitoring attaches the monitor to the live serving path: every
  // Predict now also feeds the drift windows (unlabeled).
  auto monitor = setup.model.StartMonitoring(ReplayMonitorOptions());
  ASSERT_TRUE(monitor.ok());
  ASSERT_EQ(session->monitor(), *monitor);
  auto attached = setup.model.Predict(setup.test);
  ASSERT_TRUE(attached.ok());
  EXPECT_EQ(*detached, *attached);  // bit-identical scores

  // The monitor really saw the scored rows.
  const obs::HealthSnapshot snapshot = (*monitor)->Evaluate();
  EXPECT_EQ(snapshot.global.seen, setup.test.NumRows());
  EXPECT_TRUE(snapshot.global.psi.evaluated);
  EXPECT_FALSE(snapshot.global.auc_drop.evaluated);  // no labels fed

  // Attachment is exclusive: a second attach must fail until the first
  // monitor is detached, and detach returns the displaced monitor.
  EXPECT_FALSE(session->AttachMonitor(*monitor).ok());
  EXPECT_EQ(session->DetachMonitor(), *monitor);
  EXPECT_EQ(session->monitor(), nullptr);
}

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

obs::ReplayResult InRamReplay2020(const TrainedSetup& setup) {
  auto monitor = obs::ModelHealthMonitor::Create(
      setup.model.score_reference(), ReplayMonitorOptions());
  EXPECT_TRUE(monitor.ok());
  obs::ReplayOptions options;
  options.only_year = 2020;
  auto replay = obs::ReplayStream(*setup.model.scoring_session(),
                                  monitor->get(), setup.full, options);
  EXPECT_TRUE(replay.ok());
  return std::move(*replay);
}

obs::ReplayResult CompressedReplay2020(const TrainedSetup& setup,
                                       const std::string& store_path,
                                       const data::ColumnStoreOptions& store) {
  data::LoanGenerator generator(GeneratorOptions(2000));
  auto rows = generator.GenerateToStore(store_path, store);
  EXPECT_TRUE(rows.ok());
  auto reader = data::ColumnStoreReader::Open(store_path);
  EXPECT_TRUE(reader.ok());
  auto monitor = obs::ModelHealthMonitor::Create(
      setup.model.score_reference(), ReplayMonitorOptions());
  EXPECT_TRUE(monitor.ok());
  obs::ReplayOptions options;
  options.only_year = 2020;
  auto replay = obs::ReplayCompressedStream(*setup.model.scoring_session(),
                                            monitor->get(), &*reader,
                                            options);
  EXPECT_TRUE(replay.ok());
  return std::move(*replay);
}

TEST(CompressedReplayTest, LosslessStoreMatchesInRamReplayBitForBit) {
  const TrainedSetup setup = TrainSetup();
  const obs::ReplayResult in_ram = InRamReplay2020(setup);

  TempFile file("compressed_replay_lossless.lmcs");
  data::ColumnStoreOptions store;
  store.chunk_rows = 1024;
  const obs::ReplayResult compressed =
      CompressedReplay2020(setup, file.path(), store);
  ExpectSameReplay(in_ram, compressed);
}

TEST(CompressedReplayTest, ServingGridStoreKeepsVerdictsBitIdentical) {
  const TrainedSetup setup = TrainSetup();
  const obs::ReplayResult in_ram = InRamReplay2020(setup);

  const auto session = setup.model.scoring_session();
  TempFile file("compressed_replay_grid.lmcs");
  data::ColumnStoreOptions store;
  store.chunk_rows = 1024;
  store.feature_encoding = data::FeatureEncoding::kServingGrid;
  store.feature_grids = serve::ScoringFeatureGrid(session->forest());
  store.feature_grids.resize(setup.full.NumFeatures());

  // Grid-decoded features are a few bits per value, yet scores — and so
  // every monitor verdict — must match the in-RAM replay bit for bit, on
  // whichever kernel tier is active.
  for (const serve::SimdLevel level :
       {serve::SimdLevel::kScalar, serve::SimdLevel::kAvx2}) {
    serve::ScopedSimdLevel pin(level);
    const obs::ReplayResult compressed =
        CompressedReplay2020(setup, file.path(), store);
    ExpectSameReplay(in_ram, compressed);
  }
}

TEST(CompressedReplayTest, YearFilterSkipsChunksWithoutChangingResults) {
  const TrainedSetup setup = TrainSetup();
  TempFile file("compressed_replay_filter.lmcs");
  data::LoanGenerator generator(GeneratorOptions(2000));
  data::ColumnStoreOptions store;
  store.chunk_rows = 512;
  ASSERT_TRUE(generator.GenerateToStore(file.path(), store).ok());
  auto reader = data::ColumnStoreReader::Open(file.path());
  ASSERT_TRUE(reader.ok());

  // The generator writes years in order, so most chunks are skippable
  // under a 2020 filter — and at least one chunk must be pure 2020.
  size_t skippable = 0, in_2020 = 0;
  for (size_t c = 0; c < reader->num_chunks(); ++c) {
    if (reader->chunk(c).year_max < 2020) ++skippable;
    if (reader->chunk(c).year_min >= 2020) ++in_2020;
  }
  EXPECT_GT(skippable, 0u);
  EXPECT_GT(in_2020, 0u);

  // Replaying the filtered store equals replaying the full store with the
  // same filter applied row by row (the skip is an optimization only) —
  // and both equal the in-RAM filtered replay.
  const obs::ReplayResult in_ram = InRamReplay2020(setup);
  auto monitor = obs::ModelHealthMonitor::Create(
      setup.model.score_reference(), ReplayMonitorOptions());
  ASSERT_TRUE(monitor.ok());
  obs::ReplayOptions options;
  options.only_year = 2020;
  auto compressed = obs::ReplayCompressedStream(
      *setup.model.scoring_session(), monitor->get(), &*reader, options);
  ASSERT_TRUE(compressed.ok());
  for (const obs::ReplayPeriod& period : compressed->periods) {
    EXPECT_EQ(period.year, 2020);
  }
  ExpectSameReplay(in_ram, *compressed);
}

// Each argument check fails with InvalidArgument through both entry points
// (the in-RAM one has no reader to be null), and a rejected replay feeds
// the monitor nothing.
TEST(CompressedReplayTest, ArgumentChecksRejectThroughBothEntryPoints) {
  const TrainedSetup setup = TrainSetup();
  const serve::ScoringSession& session = *setup.model.scoring_session();
  TempFile full_file("compressed_replay_arguments.lmcs");
  ASSERT_TRUE(data::LoanGenerator(GeneratorOptions(2000))
                  .GenerateToStore(full_file.path(), {})
                  .ok());
  TempFile empty_file("compressed_replay_empty.lmcs");
  {
    auto writer = data::ColumnStoreWriter::Open(
        empty_file.path(), setup.full.schema(), setup.full.env_names());
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer->Finish().ok());
  }
  const auto empty = setup.full.Select({});
  ASSERT_TRUE(empty.ok());
  auto monitor = obs::ModelHealthMonitor::Create(
      setup.model.score_reference(), ReplayMonitorOptions());
  ASSERT_TRUE(monitor.ok());

  const struct {
    const char* name;
    bool null_monitor;
    bool null_reader;
    bool empty_stream;
    size_t batch_rows;
    int only_year;
  } kCases[] = {
      {"null monitor", true, false, false, 512, 2020},
      {"null reader", false, true, false, 512, 2020},
      {"batch_rows 0", false, false, false, 0, 2020},
      {"empty stream", false, false, true, 512, 0},
      {"year filter matching no row", false, false, false, 512, 1999},
  };
  for (const auto& c : kCases) {
    obs::ReplayOptions options;
    options.batch_rows = c.batch_rows;
    options.only_year = c.only_year;
    obs::ModelHealthMonitor* target = c.null_monitor ? nullptr : monitor->get();
    if (!c.null_reader) {
      const auto in_ram = obs::ReplayStream(
          session, target, c.empty_stream ? *empty : setup.full, options);
      ASSERT_FALSE(in_ram.ok()) << "in RAM: " << c.name;
      EXPECT_EQ(in_ram.status().code(), StatusCode::kInvalidArgument)
          << "in RAM: " << c.name;
    }
    auto reader = data::ColumnStoreReader::Open(
        c.empty_stream ? empty_file.path() : full_file.path());
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    const auto compressed = obs::ReplayCompressedStream(
        session, target, c.null_reader ? nullptr : &*reader, options);
    ASSERT_FALSE(compressed.ok()) << "compressed: " << c.name;
    EXPECT_EQ(compressed.status().code(), StatusCode::kInvalidArgument)
        << "compressed: " << c.name;
  }
  EXPECT_EQ((*monitor)->Evaluate().global.seen, 0u);
}

}  // namespace
}  // namespace lightmirm
