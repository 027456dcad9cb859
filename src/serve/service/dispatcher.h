// BatchDispatcher: the batching front door of the sharded scoring service
// (serve/service/sharded_service.h). Callers Submit() small requests —
// each a handful of loans with features — and the dispatcher partitions
// their rows across N worker shards by loan-id hash and accumulates each
// shard's rows into a batch. Batching is work-conserving: whenever no
// flush cycle is running, the dispatcher flushes every non-empty shard at
// once, and rows that arrive during a cycle coalesce into the next one
// (Clipper's adaptive batching, NSDI '17). Batches grow with load, never
// by waiting on a clock. Flushed shard batches score concurrently on a
// private ThreadPool, one task per shard; the scoring callback is
// supplied by the owner (the service snapshots the shard's registry,
// scores on that version, and feeds the shard monitor), so the dispatcher
// itself knows nothing about models.
//
// This is the SeamlessDB proxy/compute-pool shape collapsed into one
// process: Submit is the proxy (partition + enqueue, never scores), the
// pool tasks are the compute nodes (each owns its shard's batch for the
// duration of a flush cycle).
//
// Concurrency contract:
//  - Submit is thread-safe and wait-free against scoring (it only takes
//    the involved shards' accumulator locks, in ascending order, for the
//    append). Capacity is checked for every involved shard before any row
//    is appended, so a shed request leaves no partial rows behind
//    (ResourceExhausted above `max_pending_rows` per shard).
//  - One dispatcher thread runs flush cycles; within a cycle ready shards
//    score in parallel, across cycles everything is serialized. A shard's
//    rows therefore reach its scorer in exact Submit order — per-shard
//    monitor feeds are deterministic however the flush timing falls.
//  - Completion callbacks run on pool threads once every shard holding
//    rows of the request has scored; per-request scores land in submit
//    row order regardless of which shards scored them. Callbacks may
//    Submit (no dispatcher locks are held) but must not block on Flush.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "serve/service/exemplar.h"

namespace lightmirm::serve {

class ServiceTelemetry;

/// One scoring request: `features` is row-major `loan_ids.size()` ×
/// `feature_width` (the dispatcher's configured width). `envs` is empty or
/// row-aligned (province id per row; rows without one score on the global
/// table). `labels` is empty or row-aligned with entries in {-1, 0, 1}
/// (-1 = not known yet) — the replay/backfill path feeds delayed labels
/// through it so shard monitors see them.
struct ScoreRequest {
  std::vector<int64_t> loan_ids;
  std::vector<double> features;
  std::vector<int> envs;
  std::vector<int> labels;
};

/// Scores aligned with the request's rows.
struct ScoreResponse {
  std::vector<double> scores;
};

/// One shard's accumulated batch, handed to the scoring callback. `envs`
/// and `labels` are always row-aligned; rows whose request omitted them
/// carry -1 (unmonitored environment / unknown label — both are exactly
/// the semantics the scorer and monitor give -1).
struct ShardBatch {
  size_t rows = 0;
  size_t width = 0;
  std::vector<double> features;  ///< row-major rows × width
  std::vector<int> envs;
  std::vector<int> labels;
  /// Lifecycle tracing (set by the dispatcher when telemetry is attached
  /// and enabled): the scorer fills `stages`' convert/kernel/monitor
  /// durations when `collect_stages` is true; the dispatcher stamps the
  /// shard/flush/score fields around it. Never affects the scores.
  bool collect_stages = false;
  ShardStageStamps stages;
};

/// Scores one shard's batch into `scores` (must be resized to batch.rows).
/// Called on a pool thread, never concurrently for the same shard. The
/// batch is owned by the flush cycle and dies when the callback returns,
/// so the callback may consume it — moving `features` out (e.g. into a
/// Matrix) avoids copying the whole block on the hot path. `rows`, `envs`
/// and `labels` must stay intact through the call.
using ShardScoreFn = std::function<Status(
    size_t shard, ShardBatch& batch, std::vector<double>* scores)>;

struct DispatcherOptions {
  size_t num_shards = 4;
  /// Row width every request must match (the serving schema is fixed per
  /// deployed model generation).
  size_t feature_width = 0;
  /// Shed trigger: Submit returns ResourceExhausted when a shard would
  /// exceed this many pending rows (must be positive).
  size_t max_pending_rows = 4096;
  /// Scoring pool width; <= 0 uses DefaultThreads(). Shard batches score
  /// one pool task per shard (nested session parallelism runs inline on a
  /// pool worker), so this bounds cross-shard scoring concurrency.
  int score_threads = 0;
  /// Lifecycle telemetry sink (serve/service/telemetry.h), not owned; must
  /// outlive the dispatcher. Null = no tracing. With a sink attached the
  /// dispatcher assigns request ids, stamps every stage, feeds the
  /// per-shard metric families and offers completed requests to the
  /// slowest-K exemplar store — all gated on obs::TelemetryEnabled(), and
  /// none of it touches scores, batching or completion order.
  ServiceTelemetry* telemetry = nullptr;
};

/// Counters, monotonically increasing over the dispatcher's lifetime.
struct DispatcherStats {
  uint64_t requests = 0;        ///< accepted requests
  uint64_t rows = 0;            ///< accepted rows
  uint64_t shed_requests = 0;   ///< rejected with ResourceExhausted
  uint64_t idle_flushes = 0;    ///< shard flushes of an idle dispatcher
  uint64_t explicit_flushes = 0;///< shard flushes while Flush() waits
  /// Always 0: the size and deadline triggers are gone. Kept only because
  /// the benchmark runner (perfbench/runner/workloads.cc) reads them.
  uint64_t size_flushes = 0;
  uint64_t deadline_flushes = 0;
};

class BatchDispatcher {
 public:
  using CompletionFn = std::function<void(Result<ScoreResponse>)>;

  /// Validates options and starts the dispatcher thread + scoring pool.
  static Result<std::unique_ptr<BatchDispatcher>> Create(
      DispatcherOptions options, ShardScoreFn score_fn) {
    return Create(std::move(options), std::move(score_fn), nullptr);
  }

  /// Stops the dispatcher thread. Pending rows are flushed and completed
  /// first, so no callback is ever dropped.
  ~BatchDispatcher();
  LIGHTMIRM_DISALLOW_COPY(BatchDispatcher);

  /// Enqueues a request; `done` fires exactly once, on a pool thread,
  /// after every row is scored (or with the first shard error). Returns
  /// without calling `done` on invalid shapes (mis-sized envs/labels/
  /// features) and on shed (ResourceExhausted) — the caller still owns
  /// the retry. Empty requests complete inline with an empty response.
  Status Submit(ScoreRequest request, CompletionFn done);

  /// Submit + block for the response.
  Result<ScoreResponse> Score(ScoreRequest request);

  /// Flushes every pending row and blocks until all are completed.
  void Flush();

  /// Stable loan-id -> shard mapping (SplitMix64 finalizer mod shards):
  /// independent of platform, process, and std::hash, so a loan's shard —
  /// and therefore which shard monitor its scores feed — is reproducible
  /// across runs and machines.
  size_t ShardOf(int64_t loan_id) const;

  DispatcherStats stats() const;
  size_t num_shards() const { return options_.num_shards; }
  const DispatcherOptions& options() const { return options_; }

 private:
  struct PendingRequest;
  struct RowRef {
    std::shared_ptr<PendingRequest> request;
    uint32_t row = 0;  ///< row index inside the request
  };

  /// One shard's accumulator. `mu` guards everything; Submit appends,
  /// the dispatcher thread swaps the contents out for a flush cycle.
  struct Shard {
    std::mutex mu;
    ShardBatch batch;
    std::vector<RowRef> rows;
  };

  /// Test seam, reached only through the DispatcherTestPeer friend: runs
  /// on the dispatcher thread each time a scan finds every shard empty,
  /// just before the loop waits — the window a lost wakeup would strand
  /// rows in.
  using IdleHook = std::function<void(BatchDispatcher&)>;
  friend class DispatcherTestPeer;

  static Result<std::unique_ptr<BatchDispatcher>> Create(
      DispatcherOptions options, ShardScoreFn score_fn, IdleHook idle_hook);
  BatchDispatcher(DispatcherOptions options, ShardScoreFn score_fn,
                  IdleHook idle_hook);

  void DispatchLoop();
  /// Runs one flush cycle over `ready` shard indices (batches already
  /// swapped out by the caller).
  void ScoreCycle(std::vector<size_t> ready,
                  std::vector<ShardBatch> batches,
                  std::vector<std::vector<RowRef>> rows);

  DispatcherOptions options_;
  ShardScoreFn score_fn_;
  IdleHook idle_hook_;
  std::vector<std::unique_ptr<Shard>> shards_;
  ThreadPool pool_;

  std::mutex wake_mu_;  ///< guards the flags below + wake/idle signaling
  std::condition_variable wake_cv_;
  std::condition_variable idle_cv_;
  bool stop_ = false;
  bool flush_requested_ = false;
  bool cycle_running_ = false;
  uint64_t pending_rows_total_ = 0;  ///< rows accepted but not yet scored
  /// Bumped (under wake_mu_) by every event the dispatcher must react to:
  /// rows appended, a shed decrementing the pending total, Flush, stop.
  /// The dispatch loop records it before scanning the shards and refuses
  /// to sleep while it has moved — so a notify that fires between the
  /// scan and the wait is never lost (the classic lost-wakeup window).
  uint64_t wake_seq_ = 0;

  mutable std::mutex stats_mu_;
  DispatcherStats stats_;

  std::thread dispatcher_;  ///< last member: joins before the rest dies
};

}  // namespace lightmirm::serve
