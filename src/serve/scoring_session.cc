#include "serve/scoring_session.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <utility>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "serve/scoring_kernel.inc"

namespace lightmirm::serve {

// The `scalar` tier: scoring_kernel.inc compiled here for the baseline ISA.
const ScoringKernel& KernelFor(SimdLevel level) {
  static constexpr ScoringKernel kScalar{&QuantizeCells, &AccumulateForest};
  return level == SimdLevel::kAvx2 && DetectedSimdLevel() == SimdLevel::kAvx2
             ? Avx2ScoringKernel()
             : kScalar;
}

namespace {

// Upper bound on rows per shard of the batch loop (and the size of the
// per-shard weight-table pointer and accumulator blocks in ScoreRange).
constexpr size_t kRowGrain = 1024;

// Deterministic shard grain for a batch of `rows`: whole kernel groups,
// sized so a batch splits into roughly kTargetShards shards — enough
// slack for any plausible pool width to balance — but never finer than
// one group nor coarser than kRowGrain. Only a batch's last shard can end
// in a partial group. A pure function of the batch size only: shard
// structure stays independent of the thread count.
size_t ServingGrain(size_t rows) {
  constexpr size_t kTargetShards = 64;
  const size_t groups = (rows + kGroupRows - 1) / kGroupRows;
  const size_t groups_per_shard = (groups + kTargetShards - 1) / kTargetShards;
  return std::min(groups_per_shard, kRowGrain / kGroupRows) * kGroupRows;
}

// This thread's leaf-mask scratch for the kernel.
uint32_t* MaskScratch(size_t trees) {
  static thread_local std::vector<uint32_t> masks;
  masks.resize(trees * kGroupRows);
  return masks.data();
}

}  // namespace

namespace internal {

namespace {

std::vector<float>& ThreadPlane() {
  static thread_local std::vector<float> plane;
  return plane;
}

}  // namespace

// Thread-local float plane of the calling thread, so steady-state scoring
// stays allocation-free: repeated batches on one caller thread reuse its
// capacity, concurrent callers each get their own plane, and pool workers
// write only their own shard's rows. Capacity far beyond the request is
// released first: one huge batch used to pin its high-water mark on every
// pool thread for the process lifetime, so a single 1M-row spike left
// every worker holding megabytes it would never touch again.
float* PlaneBuffer(size_t cells) {
  std::vector<float>& plane = ThreadPlane();
  if (plane.capacity() > cells * kPlaneShrinkFactor) {
    std::vector<float>().swap(plane);
  }
  plane.resize(cells);
  return plane.data();
}

size_t PlaneBufferCapacity() { return ThreadPlane().capacity(); }

}  // namespace internal

Result<ScoringSession> ScoringSession::Create(
    const gbdt::Booster& booster, const train::TrainedPredictor& predictor) {
  LIGHTMIRM_ASSIGN_OR_RETURN(QuantizedForest forest,
                             QuantizedForest::Build(booster));
  const size_t want = forest.num_columns() + 1;
  if (predictor.global.params().size() != want) {
    return Status::InvalidArgument(
        StrFormat("global LR table has %zu params but the forest encodes "
                  "%zu columns (+1 bias)",
                  predictor.global.params().size(), forest.num_columns()));
  }
  for (const auto& [env, model] : predictor.per_env) {
    if (model.params().size() != want) {
      return Status::InvalidArgument(
          StrFormat("env %d LR table has %zu params but the forest encodes "
                    "%zu columns (+1 bias)",
                    env, model.params().size(), forest.num_columns()));
    }
  }
  ScoringSession session;
  session.forest_ = std::move(forest);
  session.monitor_slot_ = std::make_shared<MonitorSlot>();
  session.global_ = predictor.global.params();
  for (const auto& [env, model] : predictor.per_env) {
    session.env_tables_.emplace(env, model.params());
  }
  return session;
}

std::optional<BatchWidthError> ScoringSession::CheckBatchWidth(
    const Matrix& raw) const {
  if (raw.cols() >= forest_.min_feature_count()) return std::nullopt;
  BatchWidthError error;
  error.row = 0;  // row-major batches are uniform: every row is too narrow
  error.actual_width = raw.cols();
  error.expected_width = forest_.min_feature_count();
  return error;
}

void ScoringSession::ScoreRange(const ScoringKernel& kernel,
                                const float* plane, size_t stride,
                                size_t begin, size_t end,
                                const std::vector<int>* envs, double* out,
                                bool telemetry) const {
  // Resolve each row's weight table once up front; the kernel then only
  // chases preresolved pointers. A range is at most kRowGrain rows (the
  // shard grain), so the pointer and accumulator blocks live on the stack.
  const size_t n = end - begin;
  const double* global_table = global_.data();
  const double* tab[kRowGrain];
  size_t hits = 0;
  if (envs == nullptr || env_tables_.empty()) {
    std::fill(tab, tab + n, global_table);
  } else {
    for (size_t i = 0; i < n; ++i) {
      tab[i] = TableFor((*envs)[begin + i]).data();
      hits += tab[i] != global_table ? 1 : 0;
    }
  }
  if (telemetry && !env_tables_.empty()) {
    static obs::Counter* const hit_counter =
        obs::MetricsRegistry::Global()->GetCounter("serve.env_override.hits");
    static obs::Counter* const miss_counter =
        obs::MetricsRegistry::Global()->GetCounter(
            "serve.env_override.misses");
    hit_counter->Increment(hits);
    miss_counter->Increment(n - hits);
  }
  double acc[kRowGrain];
  std::fill(acc, acc + n, 0.0);
  kernel.accumulate(forest_, plane + begin * stride, stride, n, tab, acc,
                    MaskScratch(forest_.num_trees()));
  const size_t bias = forest_.num_columns();
  for (size_t i = 0; i < n; ++i) {
    out[begin + i] = linear::Sigmoid(acc[i] + tab[i][bias]);
  }
}

namespace {

Status WidthError(const BatchWidthError& width) {
  return Status::InvalidArgument(
      StrFormat("batch row %zu has %zu features but the forest needs %zu "
                "(reads feature %zu)",
                width.row, width.actual_width, width.expected_width,
                width.expected_width - 1));
}

}  // namespace

Status ScoringSession::ScoreBatch(const ScoringSession* const* sessions,
                                  size_t num_sessions, const Matrix& raw,
                                  const std::vector<int>* envs,
                                  std::vector<double>* const* outs,
                                  ScoreStageTiming* stages) {
  WallTimer batch_watch;
  // Read once per call, so a switch flipped between calls reaches every
  // session, whenever it was created.
  const bool telemetry = obs::TelemetryEnabled();
  size_t stride = 0;
  for (size_t s = 0; s < num_sessions; ++s) {
    if (outs[s] == nullptr) {
      return Status::InvalidArgument("out must be non-null");
    }
    for (size_t other = 0; other < s; ++other) {
      if (outs[s] == outs[other]) {
        return Status::InvalidArgument(
            "champion and challenger outputs must be distinct");
      }
    }
    // One width check per batch and session — the kernel below relies on
    // it.
    if (const std::optional<BatchWidthError> width =
            sessions[s]->CheckBatchWidth(raw)) {
      return WidthError(*width);
    }
    stride = std::max(stride, sessions[s]->forest_.min_feature_count());
  }
  if (envs != nullptr && envs->size() != raw.rows()) {
    return Status::InvalidArgument(
        StrFormat("envs has %zu entries for %zu rows", envs->size(),
                  raw.rows()));
  }
  for (size_t s = 0; s < num_sessions; ++s) outs[s]->resize(raw.rows());
  const ScoringKernel& kernel = KernelFor(ActiveSimdLevel());
  // The float plane is shared by every session and every tree; each shard
  // converts its own rows (gbdt::QuantizeThreshold rounding) right before
  // scoring them, so the cells are still in cache for the sweep and the
  // batch needs exactly one pool dispatch.
  float* plane = internal::PlaneBuffer(raw.rows() * stride);
  // Stage attribution: busy time per internal shard, summed atomically.
  // The timing brackets never reorder or touch the compute, so scores are
  // bit-identical with or without `stages`.
  std::atomic<uint64_t> convert_ns{0};
  std::atomic<uint64_t> kernel_ns{0};
  ParallelForShards(
      0, raw.rows(), ServingGrain(raw.rows()),
      [&](size_t, size_t begin, size_t end) {
        using Clock = std::chrono::steady_clock;
        const auto t0 = stages != nullptr ? Clock::now()
                                          : Clock::time_point{};
        for (size_t r = begin; r < end; ++r) {
          kernel.quantize_cells(raw.Row(r), plane + r * stride, stride);
        }
        const auto t1 = stages != nullptr ? Clock::now()
                                          : Clock::time_point{};
        for (size_t s = 0; s < num_sessions; ++s) {
          sessions[s]->ScoreRange(kernel, plane, stride, begin, end, envs,
                                  outs[s]->data(), telemetry);
        }
        if (stages != nullptr) {
          const auto t2 = Clock::now();
          convert_ns.fetch_add(
              static_cast<uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(t1 -
                                                                       t0)
                      .count()),
              std::memory_order_relaxed);
          kernel_ns.fetch_add(
              static_cast<uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(t2 -
                                                                       t1)
                      .count()),
              std::memory_order_relaxed);
        }
      });
  if (stages != nullptr) {
    stages->convert_ns = convert_ns.load(std::memory_order_relaxed);
    stages->kernel_ns = kernel_ns.load(std::memory_order_relaxed);
  }
  if (telemetry) {
    // Global-registry handles, resolved once and valid forever.
    obs::MetricsRegistry* registry = obs::MetricsRegistry::Global();
    static obs::Counter* const batches = registry->GetCounter("serve.batches");
    static obs::Counter* const rows_scored =
        registry->GetCounter("serve.rows_scored");
    static obs::Histogram* const batch_seconds =
        registry->GetHistogram("serve.batch.seconds");
    const double seconds = batch_watch.Seconds();
    for (size_t s = 0; s < num_sessions; ++s) {
      batches->Increment();
      rows_scored->Increment(raw.rows());
      batch_seconds->Record(seconds);
    }
  }
  return Status::OK();
}

Status ScoringSession::Score(const Matrix& raw, const std::vector<int>* envs,
                             std::vector<double>* out,
                             ScoreStageTiming* stages) const {
  const ScoringSession* session = this;
  LIGHTMIRM_RETURN_NOT_OK(ScoreBatch(&session, 1, raw, envs, &out, stages));
  if (const std::shared_ptr<obs::ModelHealthMonitor> monitor =
          this->monitor();
      monitor != nullptr) {
    LIGHTMIRM_RETURN_NOT_OK(monitor->ObserveBatch(*out, envs, nullptr));
  }
  return Status::OK();
}

Status ScoringSession::ScoreShadow(const ScoringSession& champion,
                                   const ScoringSession& challenger,
                                   const Matrix& raw,
                                   const std::vector<int>* envs,
                                   std::vector<double>* champion_out,
                                   std::vector<double>* challenger_out) {
  const ScoringSession* sessions[2] = {&champion, &challenger};
  std::vector<double>* outs[2] = {champion_out, challenger_out};
  return ScoreBatch(sessions, 2, raw, envs, outs);
}

Status ScoringSession::AttachMonitor(
    std::shared_ptr<obs::ModelHealthMonitor> monitor) const {
  if (monitor == nullptr) {
    return Status::InvalidArgument(
        "monitor must be non-null (use DetachMonitor to remove one)");
  }
  std::lock_guard<std::mutex> lock(monitor_slot_->mu);
  if (monitor_slot_->monitor != nullptr) {
    return Status::FailedPrecondition(
        "a monitor is already attached to this session; detach it first");
  }
  monitor_slot_->monitor = std::move(monitor);
  return Status::OK();
}

std::shared_ptr<obs::ModelHealthMonitor> ScoringSession::DetachMonitor()
    const {
  std::lock_guard<std::mutex> lock(monitor_slot_->mu);
  return std::exchange(monitor_slot_->monitor, nullptr);
}

std::shared_ptr<obs::ModelHealthMonitor> ScoringSession::monitor() const {
  std::lock_guard<std::mutex> lock(monitor_slot_->mu);
  return monitor_slot_->monitor;
}

Result<std::vector<double>> ScoringSession::Score(
    const Matrix& raw, const std::vector<int>* envs) const {
  std::vector<double> out;
  LIGHTMIRM_RETURN_NOT_OK(Score(raw, envs, &out));
  return out;
}

}  // namespace lightmirm::serve
