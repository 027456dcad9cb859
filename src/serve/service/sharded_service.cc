#include "serve/service/sharded_service.h"

#include <utility>

#include "common/matrix.h"
#include "common/string_util.h"

namespace lightmirm::serve {

Result<std::unique_ptr<ShardedScoringService>> ShardedScoringService::Create(
    core::GbdtLrModel model, ServiceOptions options) {
  if (model.scoring_session() == nullptr) {
    return Status::InvalidArgument(
        "service needs a model with a scoring session (the raw-feature "
        "ablation cannot serve)");
  }
  if (model.score_reference().empty()) {
    return Status::InvalidArgument(
        "service needs a model with a score reference: per-shard monitors "
        "and the merged health evaluator are built from it");
  }
  if (options.initial_version_id.empty()) {
    return Status::InvalidArgument("initial_version_id must be non-empty");
  }
  if (options.dispatcher.feature_width == 0) {
    options.dispatcher.feature_width =
        model.scoring_session()->forest().min_feature_count();
  }
  LIGHTMIRM_ASSIGN_OR_RETURN(
      obs::MergedHealthEvaluator evaluator,
      obs::MergedHealthEvaluator::Create(model.score_reference(),
                                         options.monitor));

  auto service =
      std::unique_ptr<ShardedScoringService>(new ShardedScoringService());
  ServiceTelemetryOptions telemetry_options;
  telemetry_options.num_shards = options.dispatcher.num_shards;
  telemetry_options.slowest_k = options.slowest_k;
  telemetry_options.flight_recorder_capacity =
      options.flight_recorder_capacity;
  telemetry_options.registry = options.telemetry_registry;
  service->telemetry_ =
      std::make_unique<ServiceTelemetry>(telemetry_options);
  options.dispatcher.telemetry = service->telemetry_.get();
  service->options_ = options;
  service->merged_.emplace(std::move(evaluator));
  service->shards_.reserve(options.dispatcher.num_shards);
  // Shard 0 takes the model; the rest register siblings — the same
  // immutable model and serving artifacts, each with its OWN monitor, so
  // shard windows observe disjoint slices of the traffic.
  LIGHTMIRM_ASSIGN_OR_RETURN(
      std::shared_ptr<const ModelVersion> base,
      ModelVersion::Create(options.initial_version_id, std::move(model),
                           options.monitor));
  for (size_t s = 0; s < options.dispatcher.num_shards; ++s) {
    auto shard = std::make_unique<ShardState>();
    std::shared_ptr<const ModelVersion> version = base;
    if (s != 0) {
      LIGHTMIRM_ASSIGN_OR_RETURN(
          version, ModelVersion::CreateSibling(base, options.monitor));
    }
    LIGHTMIRM_RETURN_NOT_OK(shard->registry.Add(std::move(version)));
    service->shards_.push_back(std::move(shard));
  }
  ShardedScoringService* raw = service.get();
  LIGHTMIRM_ASSIGN_OR_RETURN(
      service->dispatcher_,
      BatchDispatcher::Create(
          options.dispatcher,
          [raw](size_t shard, ShardBatch& batch,
                std::vector<double>* scores) {
            return raw->ScoreShardBatch(shard, batch, scores);
          }));
  return service;
}

Status ShardedScoringService::ScoreShardBatch(size_t shard,
                                              ShardBatch& batch,
                                              std::vector<double>* scores) {
  // One registry snapshot per batch: a concurrent Deploy never splits a
  // batch across versions, and the version (with its monitor) stays alive
  // for the whole batch even if it is retired and evicted mid-flight.
  const std::shared_ptr<const ModelVersion> version =
      shards_[shard]->registry.active();
  if (version == nullptr) {
    return Status::FailedPrecondition(
        StrFormat("shard %zu has no active model version", shard));
  }
  // Move, don't copy: the dispatcher owns the batch for this cycle only,
  // and an O(rows × width) copy here would sit on every flush's hot path.
  Matrix rows(batch.rows, batch.width, std::move(batch.features));
  ScoreStageTiming timing;
  LIGHTMIRM_RETURN_NOT_OK(version->session()->Score(
      rows, &batch.envs, scores,
      batch.collect_stages ? &timing : nullptr));
  if (batch.collect_stages) {
    batch.stages.convert_ns = timing.convert_ns;
    batch.stages.kernel_ns = timing.kernel_ns;
  }
  // Feed the shard's own monitor explicitly (never AttachMonitor: shards
  // share the model's session, and the labels here may carry the delayed
  // ground truth the serving path itself does not have).
  if (version->monitor() != nullptr) {
    const uint64_t feed_start = batch.collect_stages ? MonotonicNanos() : 0;
    LIGHTMIRM_RETURN_NOT_OK(version->monitor()->ObserveBatch(
        *scores, &batch.envs, &batch.labels));
    if (batch.collect_stages) {
      batch.stages.monitor_ns = MonotonicNanos() - feed_start;
    }
  }
  return Status::OK();
}

Status ShardedScoringService::Submit(ScoreRequest request,
                                     CompletionFn done) {
  return dispatcher_->Submit(std::move(request), std::move(done));
}

Result<ScoreResponse> ShardedScoringService::Score(ScoreRequest request) {
  return dispatcher_->Score(std::move(request));
}

void ShardedScoringService::Flush() { dispatcher_->Flush(); }

Result<obs::HealthSnapshot> ShardedScoringService::EvaluateHealth(
    obs::MetricsRegistry* registry) {
  // Snapshot every shard's active monitor first (each shard pins its
  // version so a concurrent swap cannot free a monitor mid-merge), then
  // run one merged tick.
  std::vector<std::shared_ptr<const ModelVersion>> versions;
  versions.reserve(shards_.size());
  std::vector<const obs::ModelHealthMonitor*> monitors;
  monitors.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::shared_ptr<const ModelVersion> version =
        shards_[s]->registry.active();
    if (version == nullptr || version->monitor() == nullptr) {
      return Status::FailedPrecondition(
          StrFormat("shard %zu has no monitored active version", s));
    }
    monitors.push_back(version->monitor().get());
    versions.push_back(std::move(version));
  }
  const bool publish = obs::TelemetryEnabled();
  if (registry == nullptr && publish) registry = telemetry_->registry();
  std::lock_guard<std::mutex> lock(health_mu_);
  LIGHTMIRM_ASSIGN_OR_RETURN(obs::HealthSnapshot snapshot,
                             merged_->Evaluate(monitors));
  if (publish) {
    telemetry_->OnHealthEvaluation(static_cast<uint32_t>(snapshot.overall),
                                   snapshot.evaluation);
    // Fleet verdict + per-shard window gauges (labeled by shard), so the
    // merge result and each shard's slice both reach the exporters.
    merged_->PublishTo(registry, snapshot);
    for (size_t s = 0; s < monitors.size(); ++s) {
      const obs::WindowAggregates window = monitors[s]->SnapshotWindows().global;
      const obs::MetricLabels shard{{"shard", StrFormat("%zu", s)}};
      registry->GetGauge("monitor.shard.window_rows", shard)
          ->Set(static_cast<double>(window.rows));
      registry->GetGauge("monitor.shard.labeled_rows", shard)
          ->Set(static_cast<double>(window.labeled));
      registry->GetGauge("monitor.shard.seen", shard)
          ->Set(static_cast<double>(window.seen));
      registry->GetGauge("monitor.shard.default_rate", shard)
          ->Set(window.labeled == 0
                    ? 0.0
                    : static_cast<double>(window.positives) /
                          static_cast<double>(window.labeled));
    }
  }
  // Flight-recorder dump on the OK/WARN -> ALERT transition: record the
  // alert event first so the dump's last line is the alert itself, then
  // freeze the ring's contents next to the snapshot.
  const obs::AlertState previous = last_overall_;
  last_overall_ = snapshot.overall;
  if (snapshot.overall == obs::AlertState::kAlert &&
      previous != obs::AlertState::kAlert) {
    telemetry_->OnAlert(static_cast<uint32_t>(snapshot.overall),
                        snapshot.evaluation);
    last_alert_dump_ = telemetry_->flight_recorder()->Dump();
    if (options_.on_alert_dump) {
      options_.on_alert_dump(snapshot, last_alert_dump_);
    }
  }
  return snapshot;
}

std::string ShardedScoringService::last_alert_dump() const {
  std::lock_guard<std::mutex> lock(health_mu_);
  return last_alert_dump_;
}

Status ShardedScoringService::Deploy(const std::string& id,
                                     core::GbdtLrModel model) {
  // Register everywhere first (so a duplicate id or invalid model fails
  // before any shard swaps), then activate shard-by-shard. In-flight
  // batches finish on their snapshots; EvictRetired() reclaims the old
  // champion once the last batch drains.
  LIGHTMIRM_ASSIGN_OR_RETURN(
      std::shared_ptr<const ModelVersion> base,
      ModelVersion::Create(id, std::move(model), options_.monitor));
  std::vector<std::shared_ptr<const ModelVersion>> versions;
  versions.reserve(shards_.size());
  versions.push_back(std::move(base));
  for (size_t s = 1; s < shards_.size(); ++s) {
    LIGHTMIRM_ASSIGN_OR_RETURN(
        std::shared_ptr<const ModelVersion> sibling,
        ModelVersion::CreateSibling(versions[0], options_.monitor));
    versions.push_back(std::move(sibling));
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    LIGHTMIRM_RETURN_NOT_OK(shards_[s]->registry.Add(versions[s]));
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    LIGHTMIRM_RETURN_NOT_OK(shards_[s]->registry.Activate(id));
  }
  if (obs::TelemetryEnabled()) {
    std::lock_guard<std::mutex> lock(health_mu_);
    telemetry_->OnDeploy(++deploy_seq_);
  }
  return Status::OK();
}

size_t ShardedScoringService::EvictRetired() {
  size_t evicted = 0;
  for (const auto& shard : shards_) {
    evicted += shard->registry.EvictUnreferenced();
  }
  return evicted;
}

}  // namespace lightmirm::serve
