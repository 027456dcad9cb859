// ScoringSession: a reusable batch scorer over a QuantizedForest. Fuses the
// three passes of the legacy inference path (leaf encoding into a sparse
// FeatureMatrix, per-row sparse dot, sigmoid) into one pass per row group —
// sigmoid(bias + Σ_t w[leaf_col(t, row)]) — with zero heap allocations in
// steady state: the caller owns the output buffer, and the float feature
// plane and the kernel's leaf masks live in thread-local buffers reused
// across batches. Batches shard across the process thread pool
// deterministically (per-row outputs are disjoint), and the fine-tune
// baseline's per-env weight overrides are honored exactly as
// TrainedPredictor::Predict does.
//
// Every batch is converted into a row-major float plane and scored by the
// one scoring kernel (serve/simd_kernel.h), in the build ActiveSimdLevel()
// picks per batch: the baseline-ISA `scalar` build or the -mavx2 `avx2`
// build of the same source. Both produce bit-identical scores (the LR
// accumulation stays in double either way).
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/matrix.h"
#include "common/result.h"
#include "gbdt/booster.h"
#include "linear/logistic.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "serve/quantized_forest.h"
#include "serve/simd_dispatch.h"
#include "train/trainer.h"

namespace lightmirm::serve {

struct ScoringKernel;

namespace internal {

/// A thread's plane scratch is released (not just left unused) when its
/// capacity exceeds kPlaneShrinkFactor × the current request, so one huge
/// batch cannot pin its high-water allocation on every pool thread for the
/// process lifetime. 4× keeps steady mixed traffic allocation-free: batch
/// sizes that wander within a 4× band reuse the buffer, only a genuine
/// collapse (e.g. 1M-row backfill followed by 64-row interactive requests)
/// triggers the free + reallocation.
inline constexpr size_t kPlaneShrinkFactor = 4;

/// Returns this thread's float plane scratch, resized to `cells`
/// (shrinking first per kPlaneShrinkFactor). Exposed for the regression
/// test; scoring code reaches it only through ScoringSession.
float* PlaneBuffer(size_t cells);

/// Capacity of this thread's plane scratch (test observability).
size_t PlaneBufferCapacity();

}  // namespace internal

/// Structured description of a batch/forest width mismatch: the first row
/// whose width cannot satisfy the forest's feature reads, plus the widths
/// involved. Row-major Matrix batches are uniform, so `row` is the first
/// row of the batch; the struct keeps the contract explicit for future
/// ragged batch sources.
struct BatchWidthError {
  size_t row = 0;
  size_t actual_width = 0;
  size_t expected_width = 0;
};

/// Busy-time split of one Score call, for stage attribution (the service
/// records these as `service.stage.convert.seconds` /
/// `service.stage.kernel.seconds`). Durations are summed across the
/// batch's internal shards; when the whole batch scores inline on one
/// thread (service-sized batches do: nested session parallelism runs
/// inline on a pool worker) convert + kernel equals the call's wall time
/// minus dispatch overhead. Collecting costs two clock reads per internal
/// shard; passing nullptr costs one branch.
struct ScoreStageTiming {
  uint64_t convert_ns = 0;  ///< float-plane conversion
  uint64_t kernel_ns = 0;   ///< forest sweep + LR accumulation + sigmoid
};

/// Batch scorer binding a forest to trained LR weights.
class ScoringSession {
 public:
  /// Builds the session's forest from `booster` (QuantizedForest::Build's
  /// errors propagate) and validates that every weight table matches its
  /// column count (params are [theta_0..theta_{cols-1}, bias]).
  static Result<ScoringSession> Create(
      const gbdt::Booster& booster,
      const train::TrainedPredictor& predictor);

  const QuantizedForest& forest() const { return forest_; }
  size_t num_env_overrides() const { return env_tables_.size(); }

  /// Validates the batch width against the forest once per batch (hoisted
  /// out of every per-block scoring loop). Returns the offending shape on
  /// failure, std::nullopt when the batch is wide enough. Score() turns a
  /// failure into the InvalidArgument its callers see.
  std::optional<BatchWidthError> CheckBatchWidth(const Matrix& raw) const;

  /// Scores every row of `raw` into `out` (resized to raw.rows(); repeated
  /// calls with a same-sized batch reuse its capacity). Row i uses the
  /// override table for (*envs)[i] when present, the global table
  /// otherwise; envs = nullptr forces the global table. Errors
  /// (InvalidArgument) when `raw` is narrower than the booster's trained
  /// feature count or `envs` is mis-sized. Scores are bit-identical to the
  /// legacy encode-then-dot path at any thread count, and identical with
  /// or without `stages` (timing never touches the compute).
  Status Score(const Matrix& raw, const std::vector<int>* envs,
               std::vector<double>* out,
               ScoreStageTiming* stages = nullptr) const;

  /// Convenience form allocating the output vector.
  Result<std::vector<double>> Score(const Matrix& raw,
                                    const std::vector<int>* envs) const;

  /// Scores one batch with two sessions — the registry's champion and a
  /// shadow challenger — in a single pass: one batch-width check each, one
  /// shared float-plane conversion (at the wider of the two strides; the
  /// kernel reads the plane through an explicit stride, so the challenger
  /// reuses the champion's converted cells), and one shard dispatch that
  /// sweeps both forests per shard while the rows are cache-hot. Outputs
  /// are bit-identical to scoring each session alone. Neither session's
  /// attached monitor is fed — shadow evaluation owns its monitors and
  /// usually has (delayed) labels the serving path does not, so the
  /// caller (serve/shadow.h) feeds them explicitly.
  static Status ScoreShadow(const ScoringSession& champion,
                            const ScoringSession& challenger,
                            const Matrix& raw, const std::vector<int>* envs,
                            std::vector<double>* champion_out,
                            std::vector<double>* challenger_out);

  /// Attaches a model-health monitor. Every Score call then feeds the
  /// monitor one ObserveBatch of (score, env) pairs — unlabeled; delayed
  /// labels reach the monitor out of band. Observing never touches the
  /// computed scores (predictions are bit-identical with monitoring on or
  /// off), which is why attachment is const; the holder is internally
  /// synchronized. Errors on a null monitor, and — so a registry handing
  /// sessions between owners can never silently drop a live monitor's
  /// feed — on a session that already has one attached: detach first.
  Status AttachMonitor(std::shared_ptr<obs::ModelHealthMonitor> monitor) const;
  /// Detaches and returns the attached monitor (null when none was).
  std::shared_ptr<obs::ModelHealthMonitor> DetachMonitor() const;
  std::shared_ptr<obs::ModelHealthMonitor> monitor() const;

 private:
  ScoringSession() = default;

  /// The one batch-prep + dispatch path behind Score and ScoreShadow:
  /// validates the batch against every session (width, envs size), sizes
  /// the outputs, and runs a single fused shard dispatch in which each
  /// shard converts its own rows into the shared float plane and scores
  /// them for every session while they are cache-hot — one pool wakeup
  /// per batch, no separate conversion pass. The plane is laid out at the
  /// widest session's stride and indexed through it explicitly, so cells
  /// (and scores) are bit-identical however many sessions share the batch.
  /// Records one `serve.*` batch per session when obs::TelemetryEnabled()
  /// is on at the call.
  static Status ScoreBatch(const ScoringSession* const* sessions,
                           size_t num_sessions, const Matrix& raw,
                           const std::vector<int>* envs,
                           std::vector<double>* const* outs,
                           ScoreStageTiming* stages = nullptr);

  /// Scores rows [begin, end) (one shard, <= the shard grain) of the
  /// shared float plane with `kernel` against the per-env/global tables,
  /// counting env override hits when `telemetry` is on. Factored out of
  /// Score so the shadow path can interleave two sessions inside one shard
  /// dispatch.
  void ScoreRange(const ScoringKernel& kernel, const float* plane,
                  size_t stride, size_t begin, size_t end,
                  const std::vector<int>* envs, double* out,
                  bool telemetry) const;

  /// Weight lookup for one row's environment (legacy override semantics).
  const linear::ParamVec& TableFor(int env) const {
    const auto it = env_tables_.find(env);
    return it != env_tables_.end() ? it->second : global_;
  }

  /// Synchronized monitor holder, heap-allocated so the session stays
  /// movable (Create returns by value).
  struct MonitorSlot {
    std::mutex mu;
    std::shared_ptr<obs::ModelHealthMonitor> monitor;
  };

  QuantizedForest forest_;
  linear::ParamVec global_;
  std::map<int, linear::ParamVec> env_tables_;
  std::shared_ptr<MonitorSlot> monitor_slot_;
};

}  // namespace lightmirm::serve
