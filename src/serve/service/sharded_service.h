// ShardedScoringService: the serving front door. Loan ids hash across N
// worker shards; each shard owns its own ModelRegistry slot (champion +
// optional staged versions, hot-swappable per shard), scores on the
// registry's active version via its ScoringSession, and feeds the scored
// batch to that version's own ModelHealthMonitor — so every shard carries
// an independent sliding-window view of its slice of the traffic. A
// BatchDispatcher (serve/service/dispatcher.h) fronts the shards:
// requests accumulate into per-shard batches that flush whenever the
// dispatcher is idle — no batching deadline, so a lone request scores at
// once and a burst coalesces behind the running cycle — scoring
// concurrently across shards on a private pool.
//
// Global health is a snapshot merge, not a shared window: EvaluateHealth
// copies every shard monitor's O(bins) window aggregates, bin-wise-sums
// them, and runs the exact single-monitor verdict code over the merged
// aggregates (obs::MergedHealthEvaluator). With windows sized to the
// evaluation horizon the merged timeline is what one monitor observing
// the union stream would produce — bench_service proves this against the
// single-shard bench_monitor_replay timeline byte-for-byte.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "core/gbdt_lr_model.h"
#include "obs/monitor.h"
#include "serve/model_registry.h"
#include "serve/service/dispatcher.h"
#include "serve/service/telemetry.h"

namespace lightmirm::serve {

struct ServiceOptions {
  /// Dispatcher shape. `feature_width` may be left 0: Create fills it
  /// with the model's trained feature count. `telemetry` is overwritten:
  /// the service always wires its own ServiceTelemetry in.
  DispatcherOptions dispatcher;
  /// Per-shard monitor configuration. Size `window` to the horizon you
  /// evaluate over: merged-fleet verdicts equal a single monitor's
  /// exactly as long as no shard window has evicted.
  obs::MonitorOptions monitor;
  /// Version id the initial model registers under, in every shard.
  std::string initial_version_id = "v1";
  /// Registry the service's metric families (service.*, monitor.fleet.*)
  /// live in; null = the process-global registry.
  obs::MetricsRegistry* telemetry_registry = nullptr;
  /// Slowest-K exemplar store size (tail attribution).
  size_t slowest_k = 16;
  /// Flight-recorder ring size (recent service events; rounded to pow2).
  size_t flight_recorder_capacity = 1024;
  /// Fired (under the health lock, so at most once per transition) when
  /// the merged fleet health enters ALERT: the snapshot that tripped it
  /// plus the flight-recorder dump of the events leading up to it.
  std::function<void(const obs::HealthSnapshot&, const std::string&)>
      on_alert_dump;
};

class ShardedScoringService {
 public:
  using CompletionFn = BatchDispatcher::CompletionFn;

  /// Builds per-shard registries each holding `model` as the active
  /// version (shards share the model's immutable scoring session; each
  /// shard's version carries its own monitor over its own windows).
  /// Errors when the model has no scoring session or no score reference
  /// (a service without health monitoring is a different deployment —
  /// refuse rather than silently serve blind).
  static Result<std::unique_ptr<ShardedScoringService>> Create(
      core::GbdtLrModel model, ServiceOptions options = {});

  /// Asynchronous scoring: rows partition across shards, batch, and score;
  /// `done` fires once with the row-aligned scores (or the first error).
  /// ResourceExhausted = shed, caller owns the retry.
  Status Submit(ScoreRequest request, CompletionFn done);

  /// Synchronous convenience (blocks for the whole request).
  Result<ScoreResponse> Score(ScoreRequest request);

  /// Drains every pending row (blocks until scored + completed).
  void Flush();

  /// One merged evaluation tick across all shard monitors; see file
  /// comment. Evaluates the *active* versions' monitors. When telemetry
  /// is enabled the tick also publishes the fleet verdict as
  /// `monitor.fleet.*` gauges plus per-shard `monitor.shard.*{shard=...}`
  /// window gauges into `registry` (null = the service's telemetry
  /// registry), and a transition of the merged overall state into ALERT
  /// snapshots the flight recorder: the dump is kept (last_alert_dump)
  /// and handed to ServiceOptions::on_alert_dump with the snapshot.
  Result<obs::HealthSnapshot> EvaluateHealth(
      obs::MetricsRegistry* registry = nullptr);

  /// Registers `model` under `id` in every shard registry and activates
  /// it (the rolling deploy, applied shard-by-shard in index order;
  /// in-flight batches finish on their snapshots). The previous champion
  /// stays registered for rollback.
  Status Deploy(const std::string& id, core::GbdtLrModel model);

  /// Evicts retired, unreferenced versions from every shard registry;
  /// returns the total dropped.
  size_t EvictRetired();

  size_t num_shards() const { return shards_.size(); }
  /// Per-shard registry (tests and deployment tooling; shard < num_shards).
  ModelRegistry* shard_registry(size_t shard) {
    return &shards_[shard]->registry;
  }
  size_t ShardOf(int64_t loan_id) const {
    return dispatcher_->ShardOf(loan_id);
  }
  DispatcherStats dispatcher_stats() const { return dispatcher_->stats(); }

  /// The service's instrumentation hub (request ids, metric handles,
  /// exemplar store, flight recorder). Never null.
  ServiceTelemetry* telemetry() { return telemetry_.get(); }
  /// Slowest tracked requests with full stage breakdowns, slowest first.
  std::vector<RequestExemplar> SlowestRequests() const {
    return telemetry_->SlowestRequests();
  }
  FlightRecorder* flight_recorder() { return telemetry_->flight_recorder(); }
  /// Flight-recorder dump captured at the most recent OK/WARN -> ALERT
  /// transition of the merged health ("" when none has happened).
  std::string last_alert_dump() const;

 private:
  struct ShardState {
    ModelRegistry registry;
  };

  ShardedScoringService() = default;

  /// The dispatcher's per-shard scoring callback: snapshot the shard's
  /// active version, score the batch on its session, feed the version's
  /// monitor. Runs on a pool thread, never concurrently per shard.
  /// Consumes batch.features (moved into the scoring matrix — the batch
  /// dies with the flush cycle, so copying it would be pure overhead).
  Status ScoreShardBatch(size_t shard, ShardBatch& batch,
                         std::vector<double>* scores);

  ServiceOptions options_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  /// Fleet-level evaluator: owns the merged hysteresis machines, which
  /// persist across ticks (and across Deploys — an elevated state carries
  /// over a model swap until the merged signals clear it).
  mutable std::mutex health_mu_;
  std::optional<obs::MergedHealthEvaluator> merged_;
  obs::AlertState last_overall_ = obs::AlertState::kOk;  ///< health_mu_
  std::string last_alert_dump_;                          ///< health_mu_
  uint64_t deploy_seq_ = 0;  ///< deploys applied (health_mu_)
  /// Outlives the dispatcher (whose hooks point into it).
  std::unique_ptr<ServiceTelemetry> telemetry_;
  std::unique_ptr<BatchDispatcher> dispatcher_;  ///< stops before shards die
};

}  // namespace lightmirm::serve
