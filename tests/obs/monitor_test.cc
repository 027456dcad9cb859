#include "obs/monitor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/drift.h"
#include "obs/metrics.h"

namespace lightmirm::obs {
namespace {

// Transition table of the hysteresis state machine with thresholds
// warn = 0.1, alert = 0.25, hysteresis = 0.2, so the de-escalation edges
// are clear_warn = 0.08 and clear_alert = 0.2.
TEST(AlertStateMachineTest, TransitionTable) {
  AlertStateMachine sm({0.1, 0.25, 0.2});
  EXPECT_EQ(sm.state(), AlertState::kOk);
  EXPECT_EQ(sm.Update(0.05), AlertState::kOk);     // below warn
  EXPECT_EQ(sm.Update(0.10), AlertState::kWarn);   // at warn: escalate
  EXPECT_EQ(sm.Update(0.09), AlertState::kWarn);   // above clear_warn: hold
  EXPECT_EQ(sm.Update(0.079), AlertState::kOk);    // below clear_warn
  EXPECT_EQ(sm.Update(0.25), AlertState::kAlert);  // OK -> ALERT directly
  EXPECT_EQ(sm.Update(0.21), AlertState::kAlert);  // above clear_alert: hold
  EXPECT_EQ(sm.Update(0.20), AlertState::kAlert);  // exactly clear_alert: hold
  EXPECT_EQ(sm.Update(0.19), AlertState::kWarn);   // below clear_alert
  EXPECT_EQ(sm.Update(0.24), AlertState::kWarn);   // below alert: hold
  EXPECT_EQ(sm.Update(0.25), AlertState::kAlert);  // re-escalate
  EXPECT_EQ(sm.Update(0.05), AlertState::kOk);     // ALERT -> OK directly
}

// A value oscillating exactly around a threshold must never bounce the
// state back and forth.
TEST(AlertStateMachineTest, NoFlappingAtTheThreshold) {
  AlertStateMachine sm({0.1, 0.25, 0.2});
  EXPECT_EQ(sm.Update(0.10), AlertState::kWarn);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(sm.Update(i % 2 == 0 ? 0.099 : 0.101), AlertState::kWarn);
  }
}

// Reference with two environments and hand-checkable aggregates:
//   env 0: 200 rows of score 0.25, 40 positives (rate 0.20)
//   env 1: 200 rows of score 0.65, 130 positives (rate 0.65)
ScoreReference TestReference() {
  std::vector<double> scores;
  std::vector<int> labels;
  std::vector<int> envs;
  for (int i = 0; i < 200; ++i) {
    scores.push_back(0.25);
    labels.push_back(i < 40);
    envs.push_back(0);
  }
  for (int i = 0; i < 200; ++i) {
    scores.push_back(0.65);
    labels.push_back(i < 130);
    envs.push_back(1);
  }
  auto ref = BuildScoreReference(scores, labels, envs, /*num_bins=*/10,
                                 /*min_env_rows=*/50, {"Hubei", "Zhejiang"});
  EXPECT_TRUE(ref.ok());
  return *ref;
}

// Feeds the monitor exactly the reference population.
void FeedReferencePopulation(ModelHealthMonitor* monitor) {
  std::vector<double> scores;
  std::vector<int> labels;
  std::vector<int> envs;
  for (int i = 0; i < 200; ++i) {
    scores.push_back(0.25);
    labels.push_back(i < 40);
    envs.push_back(0);
  }
  for (int i = 0; i < 200; ++i) {
    scores.push_back(0.65);
    labels.push_back(i < 130);
    envs.push_back(1);
  }
  ASSERT_TRUE(monitor->ObserveBatch(scores, &envs, &labels).ok());
}

TEST(ModelHealthMonitorTest, RejectsEmptyReference) {
  EXPECT_FALSE(ModelHealthMonitor::Create(ScoreReference{}).ok());
}

// The env-window table is indexed by env id, so a reference id sizes it:
// ids outside [0, kEnvIdLimit) are refused, not allocated for.
TEST(ModelHealthMonitorTest, RejectsEnvIdsOutsideTheMonitoredRange) {
  for (int id : {-1, ModelHealthMonitor::kEnvIdLimit, 100000000, INT_MAX}) {
    ScoreReference reference = TestReference();
    auto node = reference.per_env.extract(1);
    node.key() = id;
    reference.per_env.insert(std::move(node));
    auto monitor = ModelHealthMonitor::Create(std::move(reference));
    ASSERT_FALSE(monitor.ok()) << id;
    EXPECT_EQ(monitor.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(monitor.status().message().find(std::to_string(id)),
              std::string::npos)
        << monitor.status().ToString();
  }
  ScoreReference edge = TestReference();
  auto node = edge.per_env.extract(1);
  node.key() = ModelHealthMonitor::kEnvIdLimit - 1;
  edge.per_env.insert(std::move(node));
  EXPECT_TRUE(ModelHealthMonitor::Create(std::move(edge)).ok());
}

TEST(ModelHealthMonitorTest, StationaryPopulationStaysOk) {
  auto monitor = ModelHealthMonitor::Create(TestReference());
  ASSERT_TRUE(monitor.ok());
  FeedReferencePopulation(monitor->get());
  const HealthSnapshot snapshot = (*monitor)->Evaluate();
  EXPECT_EQ(snapshot.evaluation, 1u);
  EXPECT_EQ(snapshot.overall, AlertState::kOk);
  EXPECT_TRUE(snapshot.global.psi.evaluated);
  EXPECT_NEAR(snapshot.global.psi.value, 0.0, 1e-9);
  EXPECT_TRUE(snapshot.global.default_rate_rise.evaluated);
  EXPECT_NEAR(snapshot.global.default_rate, 170.0 / 400.0, 1e-12);
  EXPECT_NEAR(snapshot.global.default_rate_rise.value, 0.0, 1e-12);
  EXPECT_TRUE(snapshot.global.auc_drop.evaluated);
  EXPECT_NEAR(snapshot.global.auc_drop.value, 0.0, 1e-12);
  ASSERT_EQ(snapshot.per_env.size(), 2u);
  EXPECT_EQ(snapshot.per_env.at(0).overall, AlertState::kOk);
  EXPECT_EQ(snapshot.per_env.at(1).overall, AlertState::kOk);
  // 200 labeled rows per env < fairness_min_labeled (300): gap not scored.
  EXPECT_FALSE(snapshot.fairness_gap.evaluated);
}

TEST(ModelHealthMonitorTest, UnderfilledWindowsHoldStateUnevaluated) {
  auto monitor = ModelHealthMonitor::Create(TestReference());
  ASSERT_TRUE(monitor.ok());
  const std::vector<double> scores = {0.95};  // far off the reference
  ASSERT_TRUE((*monitor)->ObserveBatch(scores, nullptr, nullptr).ok());
  const HealthSnapshot snapshot = (*monitor)->Evaluate();
  EXPECT_FALSE(snapshot.global.psi.evaluated);
  EXPECT_EQ(snapshot.global.psi.state, AlertState::kOk);  // held, not fired
  EXPECT_EQ(snapshot.overall, AlertState::kOk);
}

TEST(ModelHealthMonitorTest, UnlabeledFeedEvaluatesDistributionSignalsOnly) {
  auto monitor = ModelHealthMonitor::Create(TestReference());
  ASSERT_TRUE(monitor.ok());
  std::vector<double> scores(400, 0.25);
  ASSERT_TRUE((*monitor)->ObserveBatch(scores, nullptr, nullptr).ok());
  const HealthSnapshot snapshot = (*monitor)->Evaluate();
  EXPECT_TRUE(snapshot.global.psi.evaluated);
  EXPECT_FALSE(snapshot.global.default_rate_rise.evaluated);
  EXPECT_FALSE(snapshot.global.auc_drop.evaluated);
  EXPECT_FALSE(snapshot.global.calibration.evaluated);
}

TEST(ModelHealthMonitorTest, ShiftedPopulationFiresAlertsPerEnvironment) {
  auto monitor = ModelHealthMonitor::Create(TestReference());
  ASSERT_TRUE(monitor.ok());
  FeedReferencePopulation(monitor->get());
  // A score-distribution shift concentrated in env 0: 400 rows at 0.95
  // with a 90% default rate.
  std::vector<double> scores(400, 0.95);
  std::vector<int> labels(400, 0);
  std::vector<int> envs(400, 0);
  for (int i = 0; i < 360; ++i) labels[i] = 1;
  ASSERT_TRUE((*monitor)->ObserveBatch(scores, &envs, &labels).ok());
  const HealthSnapshot snapshot = (*monitor)->Evaluate();
  EXPECT_EQ(snapshot.global.psi.state, AlertState::kAlert);
  EXPECT_EQ(snapshot.per_env.at(0).overall, AlertState::kAlert);
  EXPECT_EQ(snapshot.per_env.at(1).overall, AlertState::kOk);  // untouched
  EXPECT_EQ(snapshot.overall, AlertState::kAlert);
}

TEST(ModelHealthMonitorTest, ObserveBatchValidatesAlignment) {
  auto monitor = ModelHealthMonitor::Create(TestReference());
  ASSERT_TRUE(monitor.ok());
  const std::vector<double> scores = {0.5, 0.5};
  const std::vector<int> short_envs = {0};
  const std::vector<int> bad_labels = {0, 3};
  EXPECT_FALSE((*monitor)->ObserveBatch(scores, &short_envs, nullptr).ok());
  EXPECT_FALSE((*monitor)->ObserveBatch(scores, nullptr, &bad_labels).ok());
}

TEST(ModelHealthMonitorTest, SnapshotWindowsMatchesPerWindowGetters) {
  auto monitor = ModelHealthMonitor::Create(TestReference());
  ASSERT_TRUE(monitor.ok());
  FeedReferencePopulation(monitor->get());
  const MonitorAggregates snapshot = (*monitor)->SnapshotWindows();
  const WindowAggregates global = (*monitor)->GlobalWindow();
  EXPECT_EQ(snapshot.global.rows, global.rows);
  EXPECT_EQ(snapshot.global.seen, global.seen);
  EXPECT_EQ(snapshot.global.labeled, global.labeled);
  EXPECT_EQ(snapshot.global.positives, global.positives);
  EXPECT_EQ(snapshot.global.counts, global.counts);
  ASSERT_EQ(snapshot.per_env.size(), 2u);
  for (const int env : (*monitor)->MonitoredEnvs()) {
    const auto window = (*monitor)->EnvWindow(env);
    ASSERT_TRUE(window.ok());
    ASSERT_TRUE(snapshot.per_env.count(env));
    EXPECT_EQ(snapshot.per_env.at(env).rows, window->rows);
    EXPECT_EQ(snapshot.per_env.at(env).counts, window->counts);
  }
}

TEST(ModelHealthMonitorTest, SnapshotWindowsIsConsistentUnderConcurrency) {
  // Every observed row carries a monitored env, so at any instant the
  // global window's totals equal the sum over env windows — but only if
  // the copies are taken under one lock acquisition. Per-window getters
  // (the merged evaluator's old read path) let a batch land between the
  // global and env copies, tearing the invariant this reader asserts.
  auto monitor = ModelHealthMonitor::Create(TestReference());
  ASSERT_TRUE(monitor.ok());
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      // 2 writers x 250 batches x 8 rows = 4000 < the 4096 window
      // capacity: nothing evicts, so the global in-window totals must
      // equal the env sums exactly whenever the snapshot is untorn.
      const std::vector<double> scores(8, 0.25 + 0.4 * w);
      const std::vector<int> envs(8, w);
      const std::vector<int> labels(8, w);
      for (int i = 0; i < 250; ++i) {
        ASSERT_TRUE((*monitor)->ObserveBatch(scores, &envs, &labels).ok());
      }
      done.store(true);
    });
  }
  int torn = 0;
  while (!done.load()) {
    const MonitorAggregates snapshot = (*monitor)->SnapshotWindows();
    uint64_t env_seen = 0, env_labeled = 0, env_positives = 0;
    for (const auto& [env, window] : snapshot.per_env) {
      env_seen += window.seen;
      env_labeled += window.labeled;
      env_positives += window.positives;
    }
    torn += snapshot.global.seen != env_seen;
    torn += snapshot.global.labeled != env_labeled;
    torn += snapshot.global.positives != env_positives;
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(torn, 0);
}

TEST(ModelHealthMonitorTest, PublishesGaugesIntoRegistry) {
  auto monitor = ModelHealthMonitor::Create(TestReference());
  ASSERT_TRUE(monitor.ok());
  FeedReferencePopulation(monitor->get());
  MetricsRegistry registry;
  const HealthSnapshot snapshot = (*monitor)->Evaluate(&registry);
  EXPECT_EQ(registry.GetGauge("monitor.state")->Value(),
            static_cast<double>(snapshot.overall));
  EXPECT_EQ(registry.GetGauge("monitor.evaluations")->Value(), 1.0);
  EXPECT_EQ(registry.GetGauge("monitor.global.window_rows")->Value(), 400.0);
  EXPECT_NEAR(registry.GetGauge("monitor.global.default_rate")->Value(),
              170.0 / 400.0, 1e-12);
  // Per-province gauges publish under the sanitized province name.
  EXPECT_EQ(registry.GetGauge("monitor.env.Hubei.psi_state")->Value(), 0.0);
  EXPECT_EQ(registry.GetGauge("monitor.env.Zhejiang.state")->Value(), 0.0);
}

}  // namespace
}  // namespace lightmirm::obs
