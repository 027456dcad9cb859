#include "obs/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "obs/drift.h"
#include "obs/monitor.h"

namespace lightmirm::obs {
namespace {

// Mixed-population reference: two environments with distinct score levels
// and default rates, enough rows that per-env windows exist.
ScoreReference CheckpointReference() {
  std::vector<double> scores;
  std::vector<int> labels;
  std::vector<int> envs;
  for (int i = 0; i < 300; ++i) {
    scores.push_back(0.2 + 0.001 * (i % 100));
    labels.push_back(i % 5 == 0);
    envs.push_back(0);
  }
  for (int i = 0; i < 300; ++i) {
    scores.push_back(0.6 + 0.001 * (i % 100));
    labels.push_back(i % 2 == 0);
    envs.push_back(1);
  }
  auto ref = BuildScoreReference(scores, labels, envs, /*num_bins=*/16,
                                 /*min_env_rows=*/100, {"Hubei", "Guangdong"});
  EXPECT_TRUE(ref.ok());
  return *ref;
}

// One pseudo-random batch; `rng` advances so successive calls differ.
void RandomBatch(Rng* rng, size_t rows, std::vector<double>* scores,
                 std::vector<int>* envs, std::vector<int>* labels) {
  scores->clear();
  envs->clear();
  labels->clear();
  for (size_t i = 0; i < rows; ++i) {
    scores->push_back(rng->Uniform());
    envs->push_back(static_cast<int>(rng->UniformInt(2)));
    labels->push_back(rng->Bernoulli(scores->back()) ? 1 : 0);
  }
}

std::string Serialize(const ModelHealthMonitor& monitor) {
  std::ostringstream out;
  EXPECT_TRUE(monitor.SaveCheckpoint(&out).ok());
  return out.str();
}

TEST(SlidingWindowStateTest, RoundTripIsByteIdentical) {
  SlidingWindow window(/*num_bins=*/10, /*capacity=*/8);
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {  // overflow the ring so eviction ran
    window.Add(rng.Uniform(), i % 3 == 0 ? (i % 2) : -1);
  }
  std::ostringstream first;
  ASSERT_TRUE(window.SaveState(&first).ok());
  std::istringstream in(first.str());
  auto restored = SlidingWindow::LoadState(&in);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  std::ostringstream second;
  ASSERT_TRUE(restored->SaveState(&second).ok());
  EXPECT_EQ(first.str(), second.str());
  // The restored window keeps evolving identically, including evictions
  // whose aggregate arithmetic depends on the exact stored ring entries.
  Rng tail_a(11), tail_b(11);
  for (int i = 0; i < 10; ++i) {
    window.Add(tail_a.Uniform(), i % 2);
    restored->Add(tail_b.Uniform(), i % 2);
  }
  std::ostringstream a, b;
  ASSERT_TRUE(window.SaveState(&a).ok());
  ASSERT_TRUE(restored->SaveState(&b).ok());
  EXPECT_EQ(a.str(), b.str());
}

TEST(SlidingWindowStateTest, RejectsCorruptState) {
  SlidingWindow window(/*num_bins=*/4, /*capacity=*/8);
  window.Add(0.5, 1);
  std::ostringstream out;
  ASSERT_TRUE(window.SaveState(&out).ok());
  // Truncate after the header line: ring entries missing.
  const std::string text = out.str();
  std::istringstream truncated(text.substr(0, text.find('\n') + 1));
  EXPECT_FALSE(SlidingWindow::LoadState(&truncated).ok());
  std::istringstream garbage("not_a_window 1 2 3\n");
  EXPECT_FALSE(SlidingWindow::LoadState(&garbage).ok());
}

// The window state as SaveState writes it, with the header's capacity,
// cursor and ring size replaced.
std::string WithHeader(const std::string& state, const std::string& header) {
  return header + state.substr(state.find('\n'));
}

TEST(SlidingWindowStateTest, HostileCapacityReturnsStatus) {
  // A capacity is a setting, not a size: a window that has seen two rows
  // may legitimately be sized for 10^18. Loading it must not reserve that
  // (reserving it throws std::bad_alloc).
  SlidingWindow window(/*num_bins=*/4, /*capacity=*/8);
  window.Add(0.25, 1);
  window.Add(0.75, -1);
  std::ostringstream out;
  ASSERT_TRUE(window.SaveState(&out).ok());
  for (const char* capacity : {"1000000000000000000", "100000000000"}) {
    std::istringstream in(WithHeader(
        out.str(), std::string("sliding_window 4 ") + capacity + " 2 2 2"));
    auto restored = SlidingWindow::LoadState(&in);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored->size(), 2u);
    restored->Add(0.5, 0);  // the ring grows as it fills
    EXPECT_EQ(restored->size(), 3u);
    EXPECT_EQ(restored->labeled_total(), 2u);
  }
}

TEST(SlidingWindowStateTest, HostileRingSizeReturnsStatus) {
  // The header claims a full ring of 10^11 entries; the ring line holds
  // two. Reserving the claim throws std::bad_alloc instead.
  SlidingWindow window(/*num_bins=*/4, /*capacity=*/8);
  window.Add(0.25, 1);
  window.Add(0.75, -1);
  std::ostringstream out;
  ASSERT_TRUE(window.SaveState(&out).ok());
  std::istringstream in(WithHeader(
      out.str(), "sliding_window 4 100000000000 0 2 100000000000"));
  const auto restored = SlidingWindow::LoadState(&in);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), StatusCode::kInvalidArgument);
}

TEST(AlertStateMachineStateTest, RoundTripKeepsHysteresisState) {
  AlertStateMachine machine({0.1, 0.25, 0.2});
  machine.Update(0.3);   // -> ALERT
  machine.Update(0.21);  // held in ALERT by hysteresis
  std::ostringstream out;
  ASSERT_TRUE(machine.SaveState(&out).ok());
  std::istringstream in(out.str());
  auto restored = AlertStateMachine::LoadState(&in);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->state(), AlertState::kAlert);
  // 0.21 is above clear_alert (0.2): a fresh machine would report OK here,
  // the restored one must keep holding ALERT.
  EXPECT_EQ(restored->Update(0.21), AlertState::kAlert);
  EXPECT_EQ(restored->Update(0.19), AlertState::kWarn);
}

TEST(MonitorCheckpointTest, SaveLoadSaveIsByteIdentical) {
  auto monitor = ModelHealthMonitor::Create(CheckpointReference());
  ASSERT_TRUE(monitor.ok());
  Rng rng(3);
  std::vector<double> scores;
  std::vector<int> envs, labels;
  for (int b = 0; b < 5; ++b) {
    RandomBatch(&rng, 200, &scores, &envs, &labels);
    ASSERT_TRUE((*monitor)->ObserveBatch(scores, &envs, &labels).ok());
  }
  (void)(*monitor)->Evaluate();  // advance hysteresis + counters
  const std::string first = Serialize(**monitor);
  std::istringstream in(first);
  auto restored = ModelHealthMonitor::LoadCheckpoint(&in);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(Serialize(**restored), first);
  // Window aggregates visible through the gate surface match too.
  const WindowAggregates a = (*monitor)->GlobalWindow();
  const WindowAggregates b = (*restored)->GlobalWindow();
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.seen, b.seen);
  EXPECT_EQ(a.labeled, b.labeled);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.score_sums, b.score_sums);
}

TEST(MonitorCheckpointTest, RejectsUnknownVersionAndTruncation) {
  auto monitor = ModelHealthMonitor::Create(CheckpointReference());
  ASSERT_TRUE(monitor.ok());
  const std::string text = Serialize(**monitor);
  {
    std::string bumped = text;
    const std::string header = std::string(kMonitorCheckpointMagic) + " v1";
    bumped.replace(bumped.find(header), header.size(),
                   std::string(kMonitorCheckpointMagic) + " v999");
    std::istringstream in(bumped);
    auto loaded = ModelHealthMonitor::LoadCheckpoint(&in);
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
  }
  {
    std::istringstream in(text.substr(0, text.size() / 2));
    EXPECT_FALSE(ModelHealthMonitor::LoadCheckpoint(&in).ok());
  }
}

// A checkpoint's score reference names the env ids the monitor indexes
// densely; a hostile id must come back as a Status naming it.
TEST(MonitorCheckpointTest, RejectsHostileReferenceEnvIds) {
  auto monitor = ModelHealthMonitor::Create(CheckpointReference());
  ASSERT_TRUE(monitor.ok());
  const std::string text = Serialize(**monitor);
  const size_t at = text.find("\nenv 1 ");
  ASSERT_NE(at, std::string::npos);
  for (const char* id : {"100000000", "2147483647"}) {
    std::string edited = text;
    edited.replace(at, 7, std::string("\nenv ") + id + " ");
    std::istringstream in(edited);
    auto loaded = ModelHealthMonitor::LoadCheckpoint(&in);
    ASSERT_FALSE(loaded.ok()) << id;
    EXPECT_NE(loaded.status().message().find(id), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(MonitorCheckpointTest, FileHelpersRoundTrip) {
  auto monitor = ModelHealthMonitor::Create(CheckpointReference());
  ASSERT_TRUE(monitor.ok());
  std::vector<double> scores(400, 0.4);
  ASSERT_TRUE((*monitor)->ObserveBatch(scores, nullptr, nullptr).ok());
  const std::string path =
      testing::TempDir() + "/lightmirm_monitor_checkpoint_test.txt";
  ASSERT_TRUE(SaveMonitorCheckpointToFile(**monitor, path).ok());
  auto restored = LoadMonitorCheckpointFromFile(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(Serialize(**restored), Serialize(**monitor));
  std::remove(path.c_str());
  EXPECT_FALSE(LoadMonitorCheckpointFromFile(path).ok());
}

// The restart property the checkpoint exists for: observe N random
// batches, checkpoint, restore into a "restarted shard", then drive both
// monitors through M more identical batches. Snapshots, hysteresis states,
// and the full re-serialized state must stay identical the whole way —
// and none of it may depend on the worker-thread default, since batches
// arrive from parallel scoring shards in production.
TEST(MonitorCheckpointTest, RestartedMonitorTracksOriginalBitIdentically) {
  std::vector<std::string> final_states;
  for (int threads : {1, 2, 8}) {
    ScopedDefaultThreads guard(threads);
    auto original = ModelHealthMonitor::Create(CheckpointReference());
    ASSERT_TRUE(original.ok());
    Rng rng(42);
    std::vector<double> scores;
    std::vector<int> envs, labels;
    for (int b = 0; b < 8; ++b) {  // N pre-checkpoint batches
      RandomBatch(&rng, 150, &scores, &envs, &labels);
      ASSERT_TRUE((*original)->ObserveBatch(scores, &envs, &labels).ok());
      if (b % 3 == 0) (void)(*original)->Evaluate();
    }
    std::istringstream in(Serialize(**original));
    auto restored = ModelHealthMonitor::LoadCheckpoint(&in);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    for (int b = 0; b < 6; ++b) {  // M post-restore batches, fed to both
      RandomBatch(&rng, 150, &scores, &envs, &labels);
      ASSERT_TRUE((*original)->ObserveBatch(scores, &envs, &labels).ok());
      ASSERT_TRUE((*restored)->ObserveBatch(scores, &envs, &labels).ok());
      const HealthSnapshot s1 = (*original)->Evaluate();
      const HealthSnapshot s2 = (*restored)->Evaluate();
      EXPECT_EQ(s1.evaluation, s2.evaluation);
      EXPECT_EQ(s1.overall, s2.overall);
      EXPECT_EQ(s1.global.psi.state, s2.global.psi.state);
      EXPECT_EQ(s1.global.psi.value, s2.global.psi.value);  // bit-identical
      ASSERT_EQ(s1.per_env.size(), s2.per_env.size());
      for (const auto& [env, health] : s1.per_env) {
        ASSERT_TRUE(s2.per_env.count(env));
        EXPECT_EQ(health.overall, s2.per_env.at(env).overall);
        EXPECT_EQ(health.psi.value, s2.per_env.at(env).psi.value);
        EXPECT_EQ(health.auc_drop.value, s2.per_env.at(env).auc_drop.value);
      }
      EXPECT_EQ(Serialize(**original), Serialize(**restored));
    }
    final_states.push_back(Serialize(**original));
  }
  // Thread-count independence: the same feed yields the same final state.
  EXPECT_EQ(final_states[0], final_states[1]);
  EXPECT_EQ(final_states[0], final_states[2]);
}

}  // namespace
}  // namespace lightmirm::obs
