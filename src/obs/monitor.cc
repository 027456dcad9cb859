#include "obs/monitor.h"

#include <algorithm>

#include "common/string_util.h"
#include "metrics/streaming.h"

namespace lightmirm::obs {
namespace {

constexpr double kMinReferenceRate = 1e-6;

AlertState MaxState(AlertState a, AlertState b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

}  // namespace

const char* AlertStateName(AlertState state) {
  switch (state) {
    case AlertState::kOk:
      return "OK";
    case AlertState::kWarn:
      return "WARN";
    case AlertState::kAlert:
      return "ALERT";
  }
  return "?";
}

AlertState AlertStateMachine::Update(double value) {
  // Escalation is immediate; de-escalation requires clearing the lower
  // threshold by the hysteresis margin, so a value sitting exactly at a
  // threshold keeps the elevated state instead of flapping.
  const double clear_warn = thresholds_.warn * (1.0 - thresholds_.hysteresis);
  const double clear_alert =
      thresholds_.alert * (1.0 - thresholds_.hysteresis);
  switch (state_) {
    case AlertState::kOk:
      if (value >= thresholds_.alert) {
        state_ = AlertState::kAlert;
      } else if (value >= thresholds_.warn) {
        state_ = AlertState::kWarn;
      }
      break;
    case AlertState::kWarn:
      if (value >= thresholds_.alert) {
        state_ = AlertState::kAlert;
      } else if (value < clear_warn) {
        state_ = AlertState::kOk;
      }
      break;
    case AlertState::kAlert:
      if (value < clear_warn) {
        state_ = AlertState::kOk;
      } else if (value < clear_alert) {
        state_ = AlertState::kWarn;
      }
      break;
  }
  return state_;
}

ModelHealthMonitor::ModelHealthMonitor(ScoreReference reference,
                                       MonitorOptions options)
    : reference_(std::move(reference)),
      options_(options),
      global_(options_, reference_.num_bins),
      fairness_(options_.fairness_gap) {
  int max_env = -1;
  for (const auto& [env, bins] : reference_.per_env) {
    (void)bins;
    per_env_.emplace(env, EnvMonitor(options_, reference_.num_bins));
    max_env = std::max(max_env, env);
  }
  if (max_env >= 0) {
    env_index_.assign(static_cast<size_t>(max_env) + 1, nullptr);
    for (auto& [env, mon] : per_env_) {
      env_index_[static_cast<size_t>(env)] = &mon;
    }
  }
}

Result<std::unique_ptr<ModelHealthMonitor>> ModelHealthMonitor::Create(
    ScoreReference reference, MonitorOptions options) {
  if (reference.empty()) {
    return Status::InvalidArgument(
        "monitor needs a non-empty score reference (train the model with "
        "score-reference capture, or build one with BuildScoreReference)");
  }
  if (options.window == 0) {
    return Status::InvalidArgument("window capacity must be positive");
  }
  if (reference.num_bins > SlidingWindow::kMaxBins) {
    return Status::InvalidArgument(StrFormat(
        "score reference has %d bins; monitored windows support at most %d",
        reference.num_bins, SlidingWindow::kMaxBins));
  }
  for (const auto& [env, bins] : reference.per_env) {
    (void)bins;
    if (env < 0 || env >= kEnvIdLimit) {
      return Status::InvalidArgument(StrFormat(
          "score reference env id %d is outside the monitored range [0, %d)",
          env, kEnvIdLimit));
    }
  }
  return std::unique_ptr<ModelHealthMonitor>(
      new ModelHealthMonitor(std::move(reference), options));
}

Status ModelHealthMonitor::ObserveBatch(const std::vector<double>& scores,
                                        const std::vector<int>* envs,
                                        const std::vector<int>* labels) {
  if (envs != nullptr && envs->size() != scores.size()) {
    return Status::InvalidArgument(
        StrFormat("envs has %zu entries for %zu scores", envs->size(),
                  scores.size()));
  }
  if (labels != nullptr && labels->size() != scores.size()) {
    return Status::InvalidArgument(
        StrFormat("labels has %zu entries for %zu scores", labels->size(),
                  scores.size()));
  }
  if (labels != nullptr) {
    // Validate before feeding anything so a bad batch is all-or-nothing
    // (and the serving-path loop below stays branch-light).
    for (const int label : *labels) {
      if (label < -1 || label > 1) {
        return Status::InvalidArgument("labels must be -1, 0 or 1");
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Per-row cost of the monitored serving path. Chunked passes: bin each
  // observation once, walk the global ring in a tight loop, then bucket the
  // chunk's rows by environment (stable counting sort — each window still
  // sees its rows in arrival order) so every province's ring and aggregate
  // lines are pulled in once per chunk instead of once per row. Those lines
  // are cold right after a scoring pass and their miss latency would
  // otherwise dominate the feed.
  constexpr size_t kChunk = 512;
  const int num_bins = reference_.num_bins;
  const size_t num_envs = env_index_.size();
  SlidingWindow::Entry entries[kChunk];
  uint32_t slot[kChunk];  // row -> env bucket; num_envs = unmonitored
  SlidingWindow::Entry reordered[kChunk];  // entries regrouped by bucket
  std::vector<uint32_t> bucket_ends(num_envs + 2, 0);
  for (size_t base = 0; base < scores.size(); base += kChunk) {
    const size_t n = std::min(kChunk, scores.size() - base);
    std::fill(bucket_ends.begin(), bucket_ends.end(), 0);
    for (size_t j = 0; j < n; ++j) {
      entries[j] = SlidingWindow::MakeEntry(
          scores[base + j],
          labels != nullptr ? (*labels)[base + j] : -1, num_bins);
      uint32_t s = static_cast<uint32_t>(num_envs);
      if (envs != nullptr) {
        const int env = (*envs)[base + j];
        if (env >= 0 && static_cast<size_t>(env) < num_envs &&
            env_index_[static_cast<size_t>(env)] != nullptr) {
          s = static_cast<uint32_t>(env);
        }
      }
      slot[j] = s;
      ++bucket_ends[s + 1];
    }
    // Prefetch every active env window before the global feed: the global
    // pass is long enough to hide the env windows' cold-miss latency.
    for (size_t e = 0; e < num_envs; ++e) {
      if (bucket_ends[e + 1] != 0) env_index_[e]->window.PrefetchNextSlot();
    }
    global_.window.AddBatch(entries, n);
    if (envs == nullptr || num_envs == 0) continue;
    for (size_t e = 1; e < bucket_ends.size(); ++e) {
      bucket_ends[e] += bucket_ends[e - 1];
    }
    // Scatter advances each bucket's cursor to its end; bucket e then
    // occupies [end of e-1, bucket_ends[e]).
    for (size_t j = 0; j < n; ++j) reordered[bucket_ends[slot[j]]++] = entries[j];
    for (size_t e = 0, pos = 0; e < num_envs; ++e) {
      const size_t end = bucket_ends[e];
      if (pos == end) continue;
      env_index_[e]->window.AddBatch(reordered + pos, end - pos);
      pos = end;
    }
  }
  return Status::OK();
}

namespace {

WindowAggregates CopyAggregates(const SlidingWindow& window) {
  WindowAggregates agg;
  agg.rows = window.size();
  agg.seen = window.total_seen();
  agg.labeled = window.labeled_total();
  agg.positives = window.positive_total();
  agg.counts = window.bin_counts();
  agg.labeled_counts = window.labeled_counts();
  agg.labeled_positives = window.labeled_positives();
  agg.score_sums = window.labeled_score_sums();
  return agg;
}

}  // namespace

WindowAggregates ModelHealthMonitor::GlobalWindow() const {
  std::lock_guard<std::mutex> lock(mu_);
  return CopyAggregates(global_.window);
}

Result<WindowAggregates> ModelHealthMonitor::EnvWindow(int env) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = per_env_.find(env);
  if (it == per_env_.end()) {
    return Status::NotFound(
        StrFormat("environment %d is not monitored", env));
  }
  return CopyAggregates(it->second.window);
}

MonitorAggregates ModelHealthMonitor::SnapshotWindows() const {
  std::lock_guard<std::mutex> lock(mu_);
  MonitorAggregates snapshot;
  snapshot.global = CopyAggregates(global_.window);
  for (const auto& [env, mon] : per_env_) {
    snapshot.per_env.emplace(env, CopyAggregates(mon.window));
  }
  return snapshot;
}

std::vector<int> ModelHealthMonitor::MonitoredEnvs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int> envs;
  envs.reserve(per_env_.size());
  for (const auto& [env, mon] : per_env_) {
    (void)mon;
    envs.push_back(env);
  }
  return envs;
}

WindowHealth EvaluateWindowAggregates(const WindowAggregates& window,
                                      const BinnedScores& reference,
                                      const MonitorOptions& options,
                                      WindowStateMachines* machines,
                                      uint64_t* escalations) {
  WindowHealth health;
  health.seen = window.seen;
  health.window_rows = window.rows;
  health.labeled_rows = window.labeled;

  const auto advance = [escalations](AlertStateMachine* sm, double value,
                                     bool evaluable) {
    SignalHealth signal;
    signal.evaluated = evaluable;
    if (evaluable) {
      const AlertState before = sm->state();
      signal.value = value;
      signal.state = sm->Update(value);
      if (static_cast<int>(signal.state) > static_cast<int>(before) &&
          escalations != nullptr) {
        ++*escalations;
      }
    } else {
      signal.state = sm->state();  // hold
    }
    return signal;
  };

  // Distribution signals: window score histogram vs the reference.
  const bool dist_ready =
      health.window_rows >= options.min_rows && reference.Total() > 0;
  double psi = 0.0, drift = 0.0;
  if (dist_ready) {
    auto psi_result = metrics::PsiFromCounts(reference.counts, window.counts);
    auto ks_result = metrics::KsFromCounts(window.counts, reference.counts);
    psi = psi_result.ok() ? *psi_result : 0.0;
    drift = ks_result.ok() ? *ks_result : 0.0;
  }
  health.psi = advance(&machines->psi, psi, dist_ready);
  health.drift_ks = advance(&machines->drift_ks, drift, dist_ready);

  // Label signals over the window's labeled subset.
  const uint64_t labeled = window.labeled;
  const uint64_t positives = window.positives;
  const uint64_t negatives = labeled - positives;
  const bool rate_ready = labeled >= options.min_labeled;
  double rate_rise = 0.0;
  if (rate_ready) {
    health.default_rate =
        static_cast<double>(positives) / static_cast<double>(labeled);
    const double ref_rate =
        std::max(reference.DefaultRate(), kMinReferenceRate);
    rate_rise = std::max(0.0, health.default_rate - ref_rate) / ref_rate;
  }
  health.default_rate_rise =
      advance(&machines->default_rate_rise, rate_rise, rate_ready);

  const uint64_t ref_pos = reference.TotalPositives();
  const bool auc_ready = rate_ready && positives > 0 && negatives > 0 &&
                         ref_pos > 0 && ref_pos < reference.Total();
  double auc_drop = 0.0, ks_drop = 0.0;
  if (auc_ready) {
    std::vector<uint64_t> window_neg(window.labeled_counts.size(), 0);
    for (size_t b = 0; b < window_neg.size(); ++b) {
      window_neg[b] = window.labeled_counts[b] - window.labeled_positives[b];
    }
    const std::vector<uint64_t> ref_neg = reference.Negatives();
    auto auc =
        metrics::AucFromBinnedCounts(window.labeled_positives, window_neg);
    auto ks = metrics::KsFromCounts(window.labeled_positives, window_neg);
    auto ref_auc = metrics::AucFromBinnedCounts(reference.positives, ref_neg);
    auto ref_ks = metrics::KsFromCounts(reference.positives, ref_neg);
    if (auc.ok() && ref_auc.ok()) {
      health.auc = *auc;
      auc_drop = std::max(0.0, *ref_auc - *auc);
    }
    if (ks.ok() && ref_ks.ok()) {
      health.ks = *ks;
      ks_drop = std::max(0.0, *ref_ks - *ks);
    }
  }
  health.auc_drop = advance(&machines->auc_drop, auc_drop, auc_ready);
  health.ks_drop = advance(&machines->ks_drop, ks_drop, auc_ready);

  double ece = 0.0;
  if (rate_ready) {
    auto result = metrics::EceFromBinnedSums(
        window.labeled_counts, window.score_sums, window.labeled_positives);
    ece = result.ok() ? *result : 0.0;
  }
  health.calibration = advance(&machines->calibration, ece, rate_ready);

  health.overall = health.psi.state;
  health.overall = MaxState(health.overall, health.drift_ks.state);
  health.overall = MaxState(health.overall, health.default_rate_rise.state);
  health.overall = MaxState(health.overall, health.auc_drop.state);
  health.overall = MaxState(health.overall, health.ks_drop.state);
  health.overall = MaxState(health.overall, health.calibration.state);
  return health;
}

WindowAggregates MergeWindowAggregates(
    const std::vector<WindowAggregates>& parts) {
  WindowAggregates merged;
  size_t bins = 0;
  for (const WindowAggregates& part : parts) {
    bins = std::max(bins, part.counts.size());
  }
  merged.counts.assign(bins, 0);
  merged.labeled_counts.assign(bins, 0);
  merged.labeled_positives.assign(bins, 0);
  merged.score_sums.assign(bins, 0.0);
  for (const WindowAggregates& part : parts) {
    merged.rows += part.rows;
    merged.seen += part.seen;
    merged.labeled += part.labeled;
    merged.positives += part.positives;
    for (size_t b = 0; b < part.counts.size(); ++b) {
      merged.counts[b] += part.counts[b];
    }
    for (size_t b = 0; b < part.labeled_counts.size(); ++b) {
      merged.labeled_counts[b] += part.labeled_counts[b];
    }
    for (size_t b = 0; b < part.labeled_positives.size(); ++b) {
      merged.labeled_positives[b] += part.labeled_positives[b];
    }
    for (size_t b = 0; b < part.score_sums.size(); ++b) {
      merged.score_sums[b] += part.score_sums[b];
    }
  }
  return merged;
}

namespace {

// One environment's slot in a snapshot evaluation: merged-or-live
// aggregates, the matching reference histogram, and the state machines to
// advance. Shared by ModelHealthMonitor::Evaluate and
// MergedHealthEvaluator so the per-env loop + fairness-gap verdict logic
// exists exactly once.
struct EnvSlot {
  int env = 0;
  const WindowAggregates* window = nullptr;
  const BinnedScores* reference = nullptr;
  WindowStateMachines* machines = nullptr;
};

HealthSnapshot EvaluateSnapshotImpl(const MonitorOptions& options,
                                    const WindowAggregates& global_window,
                                    const BinnedScores& global_reference,
                                    WindowStateMachines* global_machines,
                                    const std::vector<EnvSlot>& envs,
                                    AlertStateMachine* fairness,
                                    uint64_t* evaluations,
                                    uint64_t* escalations) {
  HealthSnapshot snapshot;
  snapshot.evaluation = ++*evaluations;
  snapshot.global = EvaluateWindowAggregates(
      global_window, global_reference, options, global_machines, escalations);
  snapshot.overall = snapshot.global.overall;

  // Per-province windows, then the paper's minimax-fairness signal: the
  // worst-vs-best streaming AUC gap across provinces with enough labels.
  double best_auc = 0.0, worst_auc = 0.0;
  for (const EnvSlot& slot : envs) {
    WindowHealth health = EvaluateWindowAggregates(
        *slot.window, *slot.reference, options, slot.machines, escalations);
    const bool in_gap = health.labeled_rows >= options.fairness_min_labeled &&
                        health.auc_drop.evaluated;
    if (in_gap) {
      if (snapshot.fairness_envs.empty()) {
        best_auc = worst_auc = health.auc;
      } else {
        best_auc = std::max(best_auc, health.auc);
        worst_auc = std::min(worst_auc, health.auc);
      }
      snapshot.fairness_envs.push_back(slot.env);
    }
    snapshot.overall = MaxState(snapshot.overall, health.overall);
    snapshot.per_env.emplace(slot.env, std::move(health));
  }
  const bool gap_ready = snapshot.fairness_envs.size() >= 2;
  const double gap = gap_ready ? best_auc - worst_auc : 0.0;
  snapshot.fairness_gap.evaluated = gap_ready;
  if (gap_ready) {
    const AlertState before = fairness->state();
    snapshot.fairness_gap.value = gap;
    snapshot.fairness_gap.state = fairness->Update(gap);
    if (static_cast<int>(snapshot.fairness_gap.state) >
        static_cast<int>(before)) {
      ++*escalations;
    }
  } else {
    snapshot.fairness_gap.state = fairness->state();
  }
  snapshot.overall = MaxState(snapshot.overall, snapshot.fairness_gap.state);
  return snapshot;
}

}  // namespace

HealthSnapshot ModelHealthMonitor::Evaluate() {
  std::lock_guard<std::mutex> lock(mu_);
  // Snapshot the windows' O(bins) aggregates and run the shared verdict
  // code over them — the identical path MergedHealthEvaluator runs over
  // bin-wise sums, which is what makes single-monitor and merged-fleet
  // timelines comparable by construction.
  const WindowAggregates global_agg = CopyAggregates(global_.window);
  std::map<int, WindowAggregates> env_aggs;
  std::vector<EnvSlot> slots;
  slots.reserve(per_env_.size());
  for (auto& [env, mon] : per_env_) {
    const auto it =
        env_aggs.emplace(env, CopyAggregates(mon.window)).first;
    slots.push_back(EnvSlot{env, &it->second, &reference_.per_env.at(env),
                            &mon.machines});
  }
  return EvaluateSnapshotImpl(options_, global_agg, reference_.global,
                              &global_.machines, slots, &fairness_,
                              &evaluations_, &escalations_);
}

MergedHealthEvaluator::MergedHealthEvaluator(ScoreReference reference,
                                             MonitorOptions options)
    : reference_(std::move(reference)),
      options_(options),
      global_(options_),
      fairness_(options_.fairness_gap) {
  for (const auto& [env, bins] : reference_.per_env) {
    (void)bins;
    per_env_.emplace(env, WindowStateMachines(options_));
  }
}

Result<MergedHealthEvaluator> MergedHealthEvaluator::Create(
    ScoreReference reference, MonitorOptions options) {
  if (reference.empty()) {
    return Status::InvalidArgument(
        "merged evaluator needs a non-empty score reference");
  }
  return MergedHealthEvaluator(std::move(reference), options);
}

Result<HealthSnapshot> MergedHealthEvaluator::Evaluate(
    const std::vector<const ModelHealthMonitor*>& shards) {
  if (shards.empty()) {
    return Status::InvalidArgument(
        "merged evaluation needs at least one shard monitor");
  }
  for (const ModelHealthMonitor* shard : shards) {
    if (shard == nullptr) {
      return Status::InvalidArgument("null shard monitor");
    }
    if (shard->reference().num_bins != reference_.num_bins) {
      return Status::InvalidArgument(StrFormat(
          "shard monitor has %d reference bins, evaluator has %d",
          shard->reference().num_bins, reference_.num_bins));
    }
  }
  // One SnapshotWindows call per shard: each shard's global and env
  // aggregates are copied under a single lock acquisition, so a batch
  // observed concurrently with this tick is either in both views of its
  // shard or in neither — never a torn contribution (env labeled sums
  // exceeding what the shard's global window implied, or vice versa).
  std::vector<MonitorAggregates> snapshots;
  snapshots.reserve(shards.size());
  for (const ModelHealthMonitor* shard : shards) {
    snapshots.push_back(shard->SnapshotWindows());
  }
  std::vector<WindowAggregates> parts;
  parts.reserve(snapshots.size());
  for (MonitorAggregates& snapshot : snapshots) {
    parts.push_back(std::move(snapshot.global));
  }
  const WindowAggregates global_agg = MergeWindowAggregates(parts);
  std::map<int, WindowAggregates> env_aggs;
  std::vector<EnvSlot> slots;
  slots.reserve(per_env_.size());
  for (auto& [env, machines] : per_env_) {
    parts.clear();
    for (size_t s = 0; s < snapshots.size(); ++s) {
      const auto it = snapshots[s].per_env.find(env);
      if (it == snapshots[s].per_env.end()) {
        return Status::NotFound(StrFormat(
            "shard %zu does not monitor environment %d", s, env));
      }
      parts.push_back(std::move(it->second));
    }
    const auto it = env_aggs.emplace(env, MergeWindowAggregates(parts)).first;
    slots.push_back(EnvSlot{env, &it->second, &reference_.per_env.at(env),
                            &machines});
  }
  return EvaluateSnapshotImpl(options_, global_agg, reference_.global,
                              &global_, slots, &fairness_, &evaluations_,
                              &escalations_);
}

HealthSnapshot ModelHealthMonitor::Evaluate(MetricsRegistry* registry) {
  HealthSnapshot snapshot = Evaluate();
  if (registry != nullptr) PublishTo(registry, snapshot);
  return snapshot;
}

namespace {

void PublishWindow(MetricsRegistry* registry, const std::string& prefix,
                   const WindowHealth& health) {
  const auto signal = [&](const char* name, const SignalHealth& s) {
    registry->GetGauge(prefix + name)->Set(s.value);
    registry->GetGauge(prefix + name + "_state")
        ->Set(static_cast<double>(s.state));
  };
  registry->GetGauge(prefix + "window_rows")
      ->Set(static_cast<double>(health.window_rows));
  registry->GetGauge(prefix + "labeled_rows")
      ->Set(static_cast<double>(health.labeled_rows));
  registry->GetGauge(prefix + "default_rate")->Set(health.default_rate);
  registry->GetGauge(prefix + "auc")->Set(health.auc);
  registry->GetGauge(prefix + "ks")->Set(health.ks);
  signal("psi", health.psi);
  signal("drift_ks", health.drift_ks);
  signal("default_rate_rise", health.default_rate_rise);
  signal("auc_drop", health.auc_drop);
  signal("ks_drop", health.ks_drop);
  signal("calibration", health.calibration);
  registry->GetGauge(prefix + "state")
      ->Set(static_cast<double>(health.overall));
}

}  // namespace

void PublishHealthSnapshot(MetricsRegistry* registry,
                           const std::string& prefix,
                           const HealthSnapshot& snapshot,
                           const ScoreReference& reference) {
  if (registry == nullptr) return;
  PublishWindow(registry, prefix + "global.", snapshot.global);
  for (const auto& [env, health] : snapshot.per_env) {
    PublishWindow(registry,
                  prefix + "env." +
                      SanitizeMetricName(reference.EnvName(env)) + ".",
                  health);
  }
  registry->GetGauge(prefix + "fairness_gap")
      ->Set(snapshot.fairness_gap.value);
  registry->GetGauge(prefix + "fairness_gap_state")
      ->Set(static_cast<double>(snapshot.fairness_gap.state));
  registry->GetGauge(prefix + "state")
      ->Set(static_cast<double>(snapshot.overall));
  registry->GetGauge(prefix + "evaluations")
      ->Set(static_cast<double>(snapshot.evaluation));
}

void ModelHealthMonitor::PublishTo(MetricsRegistry* registry,
                                   const HealthSnapshot& snapshot) const {
  if (registry == nullptr) return;
  PublishHealthSnapshot(registry, "monitor.", snapshot, reference_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    registry->GetGauge("monitor.escalations")
        ->Set(static_cast<double>(escalations_));
  }
}

void MergedHealthEvaluator::PublishTo(MetricsRegistry* registry,
                                      const HealthSnapshot& snapshot) const {
  if (registry == nullptr) return;
  PublishHealthSnapshot(registry, "monitor.fleet.", snapshot, reference_);
  registry->GetGauge("monitor.fleet.escalations")
      ->Set(static_cast<double>(escalations_));
}

}  // namespace lightmirm::obs
