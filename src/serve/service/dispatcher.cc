#include "serve/service/dispatcher.h"

#include <atomic>
#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "serve/service/telemetry.h"

namespace lightmirm::serve {
namespace {

// SplitMix64 finalizer: a fixed, platform-independent avalanche of the
// loan id. std::hash would be both implementation-defined (libstdc++
// hashes integers to themselves — sequential ids would all land on shard
// id % N, a pathological skew) and unstable across toolchains.
uint64_t MixLoanId(int64_t id) {
  uint64_t x = static_cast<uint64_t>(id) + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

struct BatchDispatcher::PendingRequest {
  std::vector<double> scores;
  std::atomic<uint64_t> remaining{0};
  std::mutex mu;      ///< guards status + stamps
  Status status;      ///< first shard error wins
  CompletionFn done;
  /// `enqueue_ns` is written under the shard locks before they release,
  /// so every later stage stamp — taken by code that re-acquires a shard
  /// lock — orders after it on the monotonic clock. A flush reads its
  /// oldest row's stamp as the batch's queue wait. Lifecycle tracing:
  /// id != 0 iff the request is tracked.
  uint64_t enqueue_ns = 0;
  uint64_t id = 0;
  uint64_t admit_ns = 0;
  std::vector<ShardStageStamps> stamps;  ///< one per involved shard
};

size_t BatchDispatcher::ShardOf(int64_t loan_id) const {
  return static_cast<size_t>(MixLoanId(loan_id) % options_.num_shards);
}

Result<std::unique_ptr<BatchDispatcher>> BatchDispatcher::Create(
    DispatcherOptions options, ShardScoreFn score_fn, IdleHook idle_hook) {
  if (score_fn == nullptr) {
    return Status::InvalidArgument("dispatcher needs a shard score fn");
  }
  if (options.num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  if (options.feature_width == 0) {
    return Status::InvalidArgument("feature_width must be positive");
  }
  if (options.max_pending_rows == 0) {
    return Status::InvalidArgument("max_pending_rows must be positive");
  }
  if (options.score_threads <= 0) options.score_threads = DefaultThreads();
  return std::unique_ptr<BatchDispatcher>(new BatchDispatcher(
      std::move(options), std::move(score_fn), std::move(idle_hook)));
}

BatchDispatcher::BatchDispatcher(DispatcherOptions options,
                                 ShardScoreFn score_fn, IdleHook idle_hook)
    : options_(std::move(options)),
      score_fn_(std::move(score_fn)),
      idle_hook_(std::move(idle_hook)),
      pool_(options_.score_threads) {
  shards_.reserve(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->batch.width = options_.feature_width;
    shards_.push_back(std::move(shard));
  }
  dispatcher_ = std::thread([this] { DispatchLoop(); });
}

BatchDispatcher::~BatchDispatcher() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_ = true;
    ++wake_seq_;
  }
  wake_cv_.notify_all();
  dispatcher_.join();
}

Status BatchDispatcher::Submit(ScoreRequest request, CompletionFn done) {
  // Resolve the tracking decision once per request: every later stamp in
  // this request's life keys off the assigned id, so a telemetry toggle
  // mid-flight can never half-trace a request.
  ServiceTelemetry* const tel = options_.telemetry;
  const bool tracked = tel != nullptr && obs::TelemetryEnabled();
  const uint64_t admit_ns = tracked ? MonotonicNanos() : 0;
  if (done == nullptr) {
    return Status::InvalidArgument("Submit needs a completion fn");
  }
  const size_t n = request.loan_ids.size();
  if (request.features.size() != n * options_.feature_width) {
    return Status::InvalidArgument(StrFormat(
        "request has %zu feature values for %zu rows of width %zu",
        request.features.size(), n, options_.feature_width));
  }
  if (!request.envs.empty() && request.envs.size() != n) {
    return Status::InvalidArgument(StrFormat(
        "request has %zu envs for %zu rows", request.envs.size(), n));
  }
  if (!request.labels.empty()) {
    if (request.labels.size() != n) {
      return Status::InvalidArgument(StrFormat(
          "request has %zu labels for %zu rows", request.labels.size(), n));
    }
    for (const int label : request.labels) {
      if (label < -1 || label > 1) {
        return Status::InvalidArgument("labels must be -1, 0 or 1");
      }
    }
  }
  if (n == 0) {
    done(ScoreResponse{});
    return Status::OK();
  }

  // Partition rows by shard up front so the locked section is a straight
  // append.
  std::vector<uint32_t> shard_of(n);
  std::vector<size_t> add_count(options_.num_shards, 0);
  for (size_t i = 0; i < n; ++i) {
    shard_of[i] = static_cast<uint32_t>(ShardOf(request.loan_ids[i]));
    ++add_count[shard_of[i]];
  }
  std::vector<size_t> involved;
  for (size_t s = 0; s < options_.num_shards; ++s) {
    if (add_count[s] != 0) involved.push_back(s);
  }

  // Account the rows before they become visible to the dispatcher, so the
  // pending total can never be decremented below the rows actually in the
  // accumulators (Flush waits on it reaching zero).
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    pending_rows_total_ += n;
  }

  // Lock every involved shard in ascending index order (deadlock-free
  // against concurrent submitters) and check capacity across all of them
  // before appending anything: a shed request leaves no partial rows.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(involved.size());
  for (const size_t s : involved) locks.emplace_back(shards_[s]->mu);
  for (const size_t s : involved) {
    // Capture the row count while the shard lock is still held: after
    // locks.clear() it races with concurrent appends and batch swaps.
    const size_t held = shards_[s]->batch.rows;
    if (held + add_count[s] > options_.max_pending_rows) {
      locks.clear();
      {
        std::lock_guard<std::mutex> lock(wake_mu_);
        pending_rows_total_ -= n;
        ++wake_seq_;
        if (tracked) tel->OnPendingRows(pending_rows_total_);
      }
      // Wake the dispatcher: a Flush may be waiting on exactly this
      // decrement bringing the pending total to zero.
      wake_cv_.notify_one();
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.shed_requests;
      }
      if (tracked) tel->OnShed(s, add_count[s], held);
      return Status::ResourceExhausted(StrFormat(
          "shard %zu holds %zu pending rows (+%zu requested) over "
          "max_pending_rows=%zu; request shed",
          s, held, add_count[s], options_.max_pending_rows));
    }
  }

  auto pending = std::make_shared<PendingRequest>();
  pending->scores.resize(n);
  pending->remaining.store(n, std::memory_order_relaxed);
  pending->done = std::move(done);
  if (tracked) {
    pending->id = tel->NextRequestId();
    pending->admit_ns = admit_ns;
    pending->stamps.reserve(involved.size());
  }

  pending->enqueue_ns = MonotonicNanos();
  for (size_t i = 0; i < n; ++i) {
    Shard& shard = *shards_[shard_of[i]];
    const double* row = request.features.data() + i * options_.feature_width;
    shard.batch.features.insert(shard.batch.features.end(), row,
                                row + options_.feature_width);
    shard.batch.envs.push_back(request.envs.empty() ? -1 : request.envs[i]);
    shard.batch.labels.push_back(request.labels.empty() ? -1
                                                        : request.labels[i]);
    shard.rows.push_back(RowRef{pending, static_cast<uint32_t>(i)});
    ++shard.batch.rows;
  }
  if (tracked) {
    // Queue-depth gauges while the shard locks are still held, so the
    // reading matches a state the accumulator actually passed through.
    for (const size_t s : involved) {
      tel->OnShardQueue(s, shards_[s]->batch.rows);
    }
  }
  locks.clear();

  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.requests;
    stats_.rows += n;
  }
  // Wake the dispatcher so an idle one flushes the rows that just arrived
  // (a busy one picks them up when its cycle ends). The seq bump is what
  // makes this race-free: a dispatcher that scanned the shards before the
  // append sees the moved seq and rescans instead of sleeping, even if
  // this notify fires in the window between its scan and its wait.
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    ++wake_seq_;
    if (tracked) tel->OnPendingRows(pending_rows_total_);
  }
  wake_cv_.notify_one();
  if (tracked) {
    tel->OnAdmission(pending->id, n,
                     static_cast<double>(MonotonicNanos() - admit_ns) * 1e-9);
  }
  return Status::OK();
}

Result<ScoreResponse> BatchDispatcher::Score(ScoreRequest request) {
  struct SyncState {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Result<ScoreResponse> result = Status::OK();
  };
  auto state = std::make_shared<SyncState>();
  LIGHTMIRM_RETURN_NOT_OK(
      Submit(std::move(request), [state](Result<ScoreResponse> result) {
        {
          std::lock_guard<std::mutex> lock(state->mu);
          state->result = std::move(result);
          state->done = true;
        }
        state->cv.notify_one();
      }));
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->done; });
  return std::move(state->result);
}

void BatchDispatcher::Flush() {
  std::unique_lock<std::mutex> lock(wake_mu_);
  flush_requested_ = true;
  ++wake_seq_;
  wake_cv_.notify_one();
  idle_cv_.wait(lock, [this] {
    return !flush_requested_ && pending_rows_total_ == 0 && !cycle_running_;
  });
}

DispatcherStats BatchDispatcher::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void BatchDispatcher::DispatchLoop() {
  struct FlushRecord {
    size_t shard;
    size_t rows;
    double queue_wait_s;
  };
  for (;;) {
    ServiceTelemetry* const tel = options_.telemetry;
    const bool tracked = tel != nullptr && obs::TelemetryEnabled();
    FlushReason reason;
    uint64_t seen_seq;
    {
      std::lock_guard<std::mutex> lock(wake_mu_);
      reason = flush_requested_ ? FlushReason::kExplicit : FlushReason::kIdle;
      seen_seq = wake_seq_;
    }

    // No cycle is running: swap out every non-empty shard.
    std::vector<size_t> ready;
    std::vector<ShardBatch> batches;
    std::vector<std::vector<RowRef>> rows;
    std::vector<FlushRecord> flushes;
    for (size_t s = 0; s < shards_.size(); ++s) {
      Shard& shard = *shards_[s];
      std::lock_guard<std::mutex> shard_lock(shard.mu);
      if (shard.batch.rows == 0) continue;
      ready.push_back(s);
      batches.push_back(std::move(shard.batch));
      rows.push_back(std::move(shard.rows));
      shard.batch = ShardBatch{};
      shard.batch.width = options_.feature_width;
      shard.rows.clear();
      if (tracked) {
        // Stamp the flush on the swapped-out batch while the shard lock
        // is held: appends stamped their enqueue before releasing this
        // lock, so flush_ns >= every row's enqueue_ns (no negative queue
        // waits however the race falls).
        ShardBatch& moved = batches.back();
        moved.collect_stages = true;
        moved.stages.shard = static_cast<uint32_t>(s);
        moved.stages.batch_rows = static_cast<uint32_t>(moved.rows);
        moved.stages.flush_ns = MonotonicNanos();
        flushes.push_back(FlushRecord{
            s, moved.rows,
            static_cast<double>(moved.stages.flush_ns -
                                rows.back().front().request->enqueue_ns) *
                1e-9});
        tel->OnShardQueue(s, 0);
      }
    }

    if (!ready.empty()) {
      if (tracked) {
        for (const FlushRecord& f : flushes) {
          tel->OnFlush(f.shard, reason, f.rows, f.queue_wait_s);
        }
      }
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        uint64_t& counter = reason == FlushReason::kIdle
                                ? stats_.idle_flushes
                                : stats_.explicit_flushes;
        counter += ready.size();
      }
      uint64_t scored = 0;
      for (const ShardBatch& batch : batches) scored += batch.rows;
      {
        std::lock_guard<std::mutex> lock(wake_mu_);
        cycle_running_ = true;
      }
      ScoreCycle(std::move(ready), std::move(batches), std::move(rows));
      {
        std::lock_guard<std::mutex> lock(wake_mu_);
        cycle_running_ = false;
        pending_rows_total_ -= scored;
        if (tracked) tel->OnPendingRows(pending_rows_total_);
      }
      idle_cv_.notify_all();
      continue;  // rescan: rows that arrived during the cycle go next
    }

    if (idle_hook_) idle_hook_(*this);
    std::unique_lock<std::mutex> lock(wake_mu_);
    if (pending_rows_total_ == 0) {
      if (flush_requested_) {
        flush_requested_ = false;
        idle_cv_.notify_all();
      }
      if (stop_) return;
    }
    // Every shard was empty: sleep until new work, a shed, a flush or stop
    // wakes us. The predicate re-checks wake_seq_ under wake_mu_ before
    // blocking, so an event that landed after the shard scan — rows
    // appended by an in-flight Submit, a shed zeroing the pending total a
    // Flush waits on — forces an immediate rescan instead of an
    // indefinite wait whose notify already fired.
    wake_cv_.wait(lock, [&] { return wake_seq_ != seen_seq; });
  }
}

void BatchDispatcher::ScoreCycle(std::vector<size_t> ready,
                                 std::vector<ShardBatch> batches,
                                 std::vector<std::vector<RowRef>> rows) {
  ServiceTelemetry* const tel = options_.telemetry;
  // One pool task per ready shard; a shard's rows never score twice
  // concurrently because cycles are serialized on the dispatcher thread.
  pool_.Apply(ready.size(), [&](size_t i) {
    const size_t shard = ready[i];
    ShardBatch& batch = batches[i];
    if (batch.collect_stages) batch.stages.score_start_ns = MonotonicNanos();
    std::vector<double> scores(batch.rows, 0.0);
    Status status = score_fn_(shard, batch, &scores);
    if (status.ok() && scores.size() != batch.rows) {
      status = Status::Internal(
          StrFormat("shard %zu scored %zu rows for a %zu-row batch", shard,
                    scores.size(), batch.rows));
    }
    if (batch.collect_stages) {
      batch.stages.score_end_ns = MonotonicNanos();
      if (tel != nullptr) tel->OnBatchScored(batch.stages);
    }
    // Scatter scores back and retire rows per contiguous same-request run
    // (a request's rows land consecutively in a shard, so this is one
    // atomic decrement per request per shard).
    const std::vector<RowRef>& refs = rows[i];
    size_t j = 0;
    while (j < refs.size()) {
      PendingRequest* request = refs[j].request.get();
      size_t run = 0;
      while (j + run < refs.size() &&
             refs[j + run].request.get() == request) {
        if (status.ok()) {
          request->scores[refs[j + run].row] = scores[j + run];
        }
        ++run;
      }
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(request->mu);
        if (request->status.ok()) request->status = status;
      }
      if (batch.collect_stages && request->id != 0) {
        // One stamps entry per (request, shard): a request's rows on one
        // shard are appended atomically, so exactly one run sees them.
        ShardStageStamps stamp = batch.stages;
        stamp.enqueue_ns = request->enqueue_ns;
        std::lock_guard<std::mutex> lock(request->mu);
        request->stamps.push_back(stamp);
      }
      if (request->remaining.fetch_sub(run, std::memory_order_acq_rel) ==
          run) {
        if (tel != nullptr && request->id != 0) {
          RequestExemplar exemplar;
          exemplar.request_id = request->id;
          exemplar.rows = static_cast<uint32_t>(request->scores.size());
          exemplar.admit_ns = request->admit_ns;
          exemplar.complete_ns = MonotonicNanos();
          {
            std::lock_guard<std::mutex> lock(request->mu);
            exemplar.shards = std::move(request->stamps);
          }
          tel->OnRequestComplete(std::move(exemplar));
        }
        Status final_status;
        {
          std::lock_guard<std::mutex> lock(request->mu);
          final_status = request->status;
        }
        if (final_status.ok()) {
          ScoreResponse response;
          response.scores = std::move(request->scores);
          request->done(std::move(response));
        } else {
          request->done(std::move(final_status));
        }
      }
      j += run;
    }
  });
}

}  // namespace lightmirm::serve
