#include "serve/service/telemetry.h"

#include "common/string_util.h"

namespace lightmirm::serve {
namespace {

constexpr double kNanos = 1e-9;

// Batch-size buckets: powers of two 1..8192 (a shard batch is bounded by
// max_pending_rows, typically 4096).
const std::vector<double>& BatchRowBounds() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    for (double v = 1; v <= 8192; v *= 2) b.push_back(v);
    return b;
  }();
  return bounds;
}

}  // namespace

ServiceTelemetry::ServiceTelemetry(ServiceTelemetryOptions options)
    : registry_(options.registry != nullptr ? options.registry
                                            : obs::MetricsRegistry::Global()),
      exemplars_(options.slowest_k),
      recorder_(options.flight_recorder_capacity) {
  obs::MetricsRegistry& r = *registry_;
  requests_ = r.GetCounter("service.requests");
  rows_ = r.GetCounter("service.rows");
  deploys_ = r.GetCounter("service.deploys");
  health_evaluations_ = r.GetCounter("service.health_evaluations");
  alerts_ = r.GetCounter("service.alerts");
  pending_rows_ = r.GetGauge("service.pending_rows");
  admission_seconds_ = r.GetHistogram("service.stage.admission.seconds");
  request_seconds_ = r.GetHistogram("service.request.seconds");
  stage_queue_wait_ = r.GetHistogram("service.stage.queue_wait.seconds");
  stage_batch_form_ = r.GetHistogram("service.stage.batch_form.seconds");
  stage_score_ = r.GetHistogram("service.stage.score.seconds");
  stage_convert_ = r.GetHistogram("service.stage.convert.seconds");
  stage_kernel_ = r.GetHistogram("service.stage.kernel.seconds");
  stage_monitor_feed_ =
      r.GetHistogram("service.stage.monitor_feed.seconds");
  const size_t shards = options.num_shards == 0 ? 1 : options.num_shards;
  per_shard_.resize(shards);
  const std::vector<double>& batch_bounds = BatchRowBounds();
  for (size_t s = 0; s < shards; ++s) {
    const obs::MetricLabels shard{{"shard", StrFormat("%zu", s)}};
    ShardHandles& h = per_shard_[s];
    h.queue_rows = r.GetGauge("service.shard.queue_rows", shard);
    h.shed_requests = r.GetCounter("service.shed.requests", shard);
    static const char* kReasons[2] = {"idle", "explicit"};
    for (size_t reason = 0; reason < 2; ++reason) {
      h.flush_reason[reason] = r.GetCounter(
          "service.flushes",
          {{"shard", StrFormat("%zu", s)}, {"reason", kReasons[reason]}});
    }
    h.batch_rows =
        r.GetHistogram("service.batch.rows", shard, &batch_bounds);
    h.queue_wait_seconds =
        r.GetHistogram("service.stage.queue_wait.seconds", shard);
    h.batch_form_seconds =
        r.GetHistogram("service.stage.batch_form.seconds", shard);
    h.score_seconds = r.GetHistogram("service.stage.score.seconds", shard);
    h.convert_seconds =
        r.GetHistogram("service.stage.convert.seconds", shard);
    h.kernel_seconds = r.GetHistogram("service.stage.kernel.seconds", shard);
    h.monitor_feed_seconds =
        r.GetHistogram("service.stage.monitor_feed.seconds", shard);
  }
}

void ServiceTelemetry::OnAdmission(uint64_t request_id, size_t rows,
                                   double admission_s) {
  requests_->Increment();
  rows_->Increment(rows);
  admission_seconds_->Record(admission_s);
  recorder_.Record(ServiceEventType::kSubmit, kFleetWide, rows, request_id);
}

void ServiceTelemetry::OnShed(size_t shard, size_t rows_requested,
                              size_t rows_held) {
  if (shard >= per_shard_.size()) return;
  per_shard_[shard].shed_requests->Increment();
  recorder_.Record(ServiceEventType::kShed, static_cast<uint32_t>(shard),
                   rows_requested, rows_held);
}

void ServiceTelemetry::OnShardQueue(size_t shard, size_t rows) {
  if (shard >= per_shard_.size()) return;
  per_shard_[shard].queue_rows->Set(static_cast<double>(rows));
}

void ServiceTelemetry::OnPendingRows(size_t rows) {
  pending_rows_->Set(static_cast<double>(rows));
}

void ServiceTelemetry::OnFlush(size_t shard, FlushReason reason,
                               size_t batch_rows, double queue_wait_s) {
  if (shard >= per_shard_.size()) return;
  ShardHandles& h = per_shard_[shard];
  h.flush_reason[static_cast<uint32_t>(reason) % 2]->Increment();
  h.batch_rows->Record(static_cast<double>(batch_rows));
  h.queue_wait_seconds->Record(queue_wait_s);
  stage_queue_wait_->Record(queue_wait_s);
  recorder_.Record(ServiceEventType::kFlush, static_cast<uint32_t>(shard),
                   batch_rows, static_cast<uint64_t>(reason));
}

void ServiceTelemetry::OnBatchScored(const ShardStageStamps& stamps) {
  if (stamps.shard >= per_shard_.size()) return;
  ShardHandles& h = per_shard_[stamps.shard];
  const auto delta_s = [](uint64_t end, uint64_t begin) {
    return end >= begin ? static_cast<double>(end - begin) * kNanos : 0.0;
  };
  const double batch_form_s =
      delta_s(stamps.score_start_ns, stamps.flush_ns);
  const double score_s = delta_s(stamps.score_end_ns, stamps.score_start_ns);
  const double convert_s = static_cast<double>(stamps.convert_ns) * kNanos;
  const double kernel_s = static_cast<double>(stamps.kernel_ns) * kNanos;
  const double monitor_s = static_cast<double>(stamps.monitor_ns) * kNanos;
  h.batch_form_seconds->Record(batch_form_s);
  h.score_seconds->Record(score_s);
  h.convert_seconds->Record(convert_s);
  h.kernel_seconds->Record(kernel_s);
  h.monitor_feed_seconds->Record(monitor_s);
  stage_batch_form_->Record(batch_form_s);
  stage_score_->Record(score_s);
  stage_convert_->Record(convert_s);
  stage_kernel_->Record(kernel_s);
  stage_monitor_feed_->Record(monitor_s);
  recorder_.Record(ServiceEventType::kBatchScored, stamps.shard,
                   stamps.batch_rows,
                   stamps.score_end_ns - stamps.score_start_ns);
}

void ServiceTelemetry::OnRequestComplete(RequestExemplar exemplar) {
  request_seconds_->Record(static_cast<double>(exemplar.TotalNanos()) *
                           kNanos);
  exemplars_.Offer(std::move(exemplar));
}

void ServiceTelemetry::OnDeploy(uint64_t version_seq) {
  deploys_->Increment();
  recorder_.Record(ServiceEventType::kDeploy, kFleetWide, version_seq, 0);
}

void ServiceTelemetry::OnHealthEvaluation(uint32_t overall_state,
                                          uint64_t tick) {
  health_evaluations_->Increment();
  recorder_.Record(ServiceEventType::kHealthEval, kFleetWide, overall_state,
                   tick);
}

void ServiceTelemetry::OnAlert(uint32_t overall_state, uint64_t tick) {
  alerts_->Increment();
  recorder_.Record(ServiceEventType::kAlert, kFleetWide, overall_state,
                   tick);
}

}  // namespace lightmirm::serve
