// ServiceTelemetry: the sharded scoring service's instrumentation hub.
// Owns the slowest-K exemplar store and the flight recorder, assigns
// request ids, and caches every metric handle the service path touches —
// per-stage latency histograms (`service.stage.*.seconds`), per-shard
// labeled cells (queue-depth gauges, shed counters, flush counters split
// by reason, batch-size histograms), and the request-level aggregate — so
// recording on the hot path is pure atomic updates, never a registry name
// resolution. The dispatcher and service call the On* hooks; every hook
// is cheap enough for the Submit path and all of them no-op the histogram
// work when obs::TelemetryEnabled() is off. bench_service's telemetry leg
// measures exactly that switch against a 2% budget; the lifecycle
// currently costs more than that (README "Watching the service").
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/macros.h"
#include "obs/metrics.h"
#include "serve/service/exemplar.h"
#include "serve/service/flight_recorder.h"

namespace lightmirm::serve {

struct ServiceTelemetryOptions {
  size_t num_shards = 1;
  /// Exemplar store size (slowest-K requests kept with stage breakdowns).
  size_t slowest_k = 16;
  /// Flight recorder ring size (rounded up to a power of two).
  size_t flight_recorder_capacity = 1024;
  /// Registry the metric families live in; null = the process-global one.
  obs::MetricsRegistry* registry = nullptr;
};

/// Why a shard batch flushed: the dispatcher was idle (it flushes every
/// non-empty shard whenever no cycle runs), or a Flush() call was waiting.
enum class FlushReason : uint32_t { kIdle = 0, kExplicit = 1 };

class ServiceTelemetry {
 public:
  explicit ServiceTelemetry(ServiceTelemetryOptions options);
  LIGHTMIRM_DISALLOW_COPY(ServiceTelemetry);

  /// Service-assigned id for the next tracked request (1-based).
  uint64_t NextRequestId() {
    return next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Request accepted: admission latency (Submit entry -> rows enqueued).
  void OnAdmission(uint64_t request_id, size_t rows, double admission_s);
  /// Request shed on `shard` (no rows were enqueued anywhere).
  void OnShed(size_t shard, size_t rows_requested, size_t rows_held);
  /// Shard accumulator depth after an append or a flush swap.
  void OnShardQueue(size_t shard, size_t rows);
  /// Total rows accepted but not yet scored, fleet-wide.
  void OnPendingRows(size_t rows);
  /// Shard batch swapped out for scoring.
  void OnFlush(size_t shard, FlushReason reason, size_t batch_rows,
               double queue_wait_s);
  /// Shard batch scored; `stamps` carries the flush/score stamps and the
  /// convert/kernel/monitor durations the scorer filled in.
  void OnBatchScored(const ShardStageStamps& stamps);
  /// Request fully scored; records the request histogram and offers the
  /// exemplar to the slowest-K store.
  void OnRequestComplete(RequestExemplar exemplar);
  /// Model version activated across the fleet.
  void OnDeploy(uint64_t version_seq);
  /// One merged health evaluation tick.
  void OnHealthEvaluation(uint32_t overall_state, uint64_t tick);
  /// Merged health transitioned into ALERT (flight recorder dump time).
  void OnAlert(uint32_t overall_state, uint64_t tick);

  obs::MetricsRegistry* registry() const { return registry_; }
  FlightRecorder* flight_recorder() { return &recorder_; }
  const FlightRecorder* flight_recorder() const { return &recorder_; }
  /// Slowest tracked requests, slowest first.
  std::vector<RequestExemplar> SlowestRequests() const {
    return exemplars_.Slowest();
  }
  size_t num_shards() const { return per_shard_.size(); }

 private:
  /// Handles addressed per shard (label {"shard", "<index>"}).
  struct ShardHandles {
    obs::Gauge* queue_rows = nullptr;
    obs::Counter* shed_requests = nullptr;
    obs::Counter* flush_reason[2] = {nullptr, nullptr};
    obs::Histogram* batch_rows = nullptr;
    obs::Histogram* queue_wait_seconds = nullptr;
    obs::Histogram* batch_form_seconds = nullptr;
    obs::Histogram* score_seconds = nullptr;
    obs::Histogram* convert_seconds = nullptr;
    obs::Histogram* kernel_seconds = nullptr;
    obs::Histogram* monitor_feed_seconds = nullptr;
  };

  obs::MetricsRegistry* registry_;
  std::atomic<uint64_t> next_request_id_{0};
  ExemplarStore exemplars_;
  FlightRecorder recorder_;

  obs::Counter* requests_ = nullptr;
  obs::Counter* rows_ = nullptr;
  obs::Counter* deploys_ = nullptr;
  obs::Counter* health_evaluations_ = nullptr;
  obs::Counter* alerts_ = nullptr;
  obs::Gauge* pending_rows_ = nullptr;
  obs::Histogram* admission_seconds_ = nullptr;
  obs::Histogram* request_seconds_ = nullptr;
  /// Stage histograms aggregated across shards (the per-shard labeled
  /// cells cover attribution; these are what the p99 gate reads).
  obs::Histogram* stage_queue_wait_ = nullptr;
  obs::Histogram* stage_batch_form_ = nullptr;
  obs::Histogram* stage_score_ = nullptr;
  obs::Histogram* stage_convert_ = nullptr;
  obs::Histogram* stage_kernel_ = nullptr;
  obs::Histogram* stage_monitor_feed_ = nullptr;
  std::vector<ShardHandles> per_shard_;
};

}  // namespace lightmirm::serve
