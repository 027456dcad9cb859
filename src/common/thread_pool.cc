#include "common/thread_pool.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "obs/metrics.h"

namespace lightmirm {
namespace {

// Set while a thread is executing a pool task; nested parallel calls run
// inline instead of re-entering the pool.
thread_local bool tls_in_pool_task = false;

// Spin budget an idle worker burns watching for the next batch before
// falling back to the condition variable. A serving replica scoring
// back-to-back batches dispatches thousands of pool batches per second;
// waking a sleeping worker through futex costs ~5-20us each time, which at
// sub-millisecond batch latencies eats the parallel speedup. The budget is
// small enough (~a few microseconds) that a genuinely idle pool still
// parks quickly.
constexpr int kIdleSpinRounds = 4096;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

std::atomic<int> g_default_threads{0};  // 0 = not yet initialized

// Pool metrics in the global registry (resolved once; the handles stay
// valid forever). `pool.queue_depth` gauges the size of the batch being
// drained; the counters/histograms cover only pooled batches — the inline
// serial path stays untouched.
struct PoolMetrics {
  obs::Counter* batches;
  obs::Counter* tasks;
  obs::Gauge* queue_depth;
  obs::Histogram* batch_seconds;
  obs::Histogram* task_seconds;
};

const PoolMetrics& GetPoolMetrics() {
  static const PoolMetrics metrics = [] {
    obs::MetricsRegistry* registry = obs::MetricsRegistry::Global();
    return PoolMetrics{registry->GetCounter("pool.batches"),
                       registry->GetCounter("pool.tasks"),
                       registry->GetGauge("pool.queue_depth"),
                       registry->GetHistogram("pool.batch.seconds"),
                       registry->GetHistogram("pool.task.seconds")};
  }();
  return metrics;
}

}  // namespace

int HardwareThreads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

int DefaultThreads() {
  int n = g_default_threads.load(std::memory_order_relaxed);
  return n > 0 ? n : HardwareThreads();
}

void SetDefaultThreads(int n) {
  g_default_threads.store(n > 0 ? n : 0, std::memory_order_relaxed);
}

size_t NumShards(size_t count, size_t grain) {
  if (count == 0) return 0;
  if (grain == 0) grain = 1;
  return (count + grain - 1) / grain;
}

struct ThreadPool::Impl {
  // One batch runs at a time; Apply holds apply_mu for its whole duration.
  std::mutex apply_mu;

  std::mutex mu;
  std::condition_variable work_cv;
  std::condition_variable done_cv;

  // Batch descriptor. A claim word packs the batch's task count with its
  // next unclaimed index (limit << 32 | next), so the one fetch_add that
  // claims an index also returns the limit of the batch that index belongs
  // to. (With separate `next` and `limit` words, a worker's last claim of
  // one batch could land before the next batch reset `next` while its
  // limit load already saw the next batch's larger limit, and it would run
  // a task of the new batch twice.) `fn` is published by the release store
  // of a new batch's claim word; a claim (acquire RMW) that yields an
  // index below its limit therefore sees it. Claims at or past the limit
  // never touch `fn`, and every claim below it bumps `completed` exactly
  // once, so when `completed == limit` no thread can still be inside `fn`.
  const std::function<void(size_t)>* fn = nullptr;
  std::atomic<uint64_t> claim{0};  // limit 0: no batch open
  size_t completed = 0;  // guarded by mu
  // Atomic so idle workers can watch for the next batch (or shutdown)
  // without taking mu: `generation` is bumped (release) only after the
  // batch descriptor and the claim-word release store are in place, so a
  // spinner's acquire load of a new generation sees the whole batch.
  std::atomic<uint64_t> generation{0};
  std::atomic<bool> stop{false};
  // Spin-then-sleep only helps when every worker can own a core; on an
  // oversubscribed pool (more threads than the machine has) spinning
  // workers would steal cycles from the ones holding work.
  bool spin_wakeup = false;
  std::exception_ptr error;
  size_t error_task = std::numeric_limits<size_t>::max();

  std::vector<std::thread> workers;

  // Claims and runs tasks of the current batch until the counter runs dry.
  void RunTasks() {
    const bool telemetry = obs::TelemetryEnabled();
    for (;;) {
      const uint64_t word = claim.fetch_add(1, std::memory_order_acquire);
      const size_t t = static_cast<uint32_t>(word);
      const size_t limit = static_cast<size_t>(word >> 32);
      if (t >= limit) return;
      std::exception_ptr err;
      tls_in_pool_task = true;
      WallTimer task_watch;
      try {
        (*fn)(t);
      } catch (...) {
        err = std::current_exception();
      }
      if (telemetry) {
        const PoolMetrics& metrics = GetPoolMetrics();
        metrics.tasks->Increment();
        metrics.task_seconds->Record(task_watch.Seconds());
      }
      tls_in_pool_task = false;
      std::lock_guard<std::mutex> lock(mu);
      if (err && t < error_task) {
        error_task = t;
        error = std::move(err);
      }
      // Dropped before the task counts as complete: once Apply sees the
      // batch done, no worker still holds (and may be the last to release)
      // a task's exception.
      err = nullptr;
      if (++completed == limit) done_cv.notify_all();
    }
  }

  void WorkerLoop() {
    uint64_t seen_generation = 0;
    for (;;) {
      uint64_t g = generation.load(std::memory_order_acquire);
      if (spin_wakeup) {
        for (int i = 0;
             i < kIdleSpinRounds && g == seen_generation &&
             !stop.load(std::memory_order_relaxed);
             ++i) {
          CpuRelax();
          g = generation.load(std::memory_order_acquire);
        }
      }
      if (g == seen_generation && !stop.load(std::memory_order_relaxed)) {
        std::unique_lock<std::mutex> lock(mu);
        work_cv.wait(lock, [&] {
          return stop.load(std::memory_order_relaxed) ||
                 generation.load(std::memory_order_relaxed) !=
                     seen_generation;
        });
        g = generation.load(std::memory_order_relaxed);
      }
      if (stop.load(std::memory_order_relaxed)) return;
      seen_generation = g;
      RunTasks();
    }
  }
};

ThreadPool::ThreadPool(int num_threads)
    : impl_(new Impl), num_threads_(num_threads < 1 ? 1 : num_threads) {
  impl_->spin_wakeup = num_threads_ <= HardwareThreads();
  impl_->workers.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    impl_->workers.emplace_back([this] { impl_->WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop.store(true, std::memory_order_relaxed);
  }
  impl_->work_cv.notify_all();
  for (std::thread& w : impl_->workers) w.join();
  delete impl_;
}

void ThreadPool::Apply(size_t num_tasks,
                       const std::function<void(size_t)>& fn) {
  if (num_tasks > kMaxTasks) {
    throw std::length_error("ThreadPool::Apply: too many tasks in one batch");
  }
  if (num_tasks == 0) return;
  if (num_threads_ <= 1 || num_tasks == 1 || tls_in_pool_task) {
    // Inline serial execution in task order (also the nested-call path).
    for (size_t t = 0; t < num_tasks; ++t) fn(t);
    return;
  }
  std::lock_guard<std::mutex> apply_lock(impl_->apply_mu);
  const bool telemetry = obs::TelemetryEnabled();
  WallTimer batch_watch;
  if (telemetry) {
    const PoolMetrics& metrics = GetPoolMetrics();
    metrics.batches->Increment();
    metrics.queue_depth->Set(static_cast<double>(num_tasks));
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->fn = &fn;
    impl_->completed = 0;
    impl_->error = nullptr;
    impl_->error_task = std::numeric_limits<size_t>::max();
    impl_->claim.store(static_cast<uint64_t>(num_tasks) << 32,
                       std::memory_order_release);
    // Bumped last (release): a spinning worker that observes the new
    // generation without touching mu still sees the whole batch above.
    impl_->generation.fetch_add(1, std::memory_order_release);
  }
  impl_->work_cv.notify_all();
  impl_->RunTasks();  // the caller participates
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(impl_->mu);
    impl_->done_cv.wait(lock, [&] { return impl_->completed == num_tasks; });
    error = std::move(impl_->error);
  }
  if (telemetry) {
    const PoolMetrics& metrics = GetPoolMetrics();
    metrics.queue_depth->Set(0.0);
    metrics.batch_seconds->Record(batch_watch.Seconds());
  }
  if (error) std::rethrow_exception(error);
}

namespace {

// The shared pool behind ParallelFor/ParallelForShards. Rebuilt when the
// default thread count changes; intentionally leaked at exit so late
// worker teardown can never race static destruction. Resizing while
// another thread is inside a parallel loop is not supported (the CLI knob
// is set once at startup or between phases).
std::mutex g_pool_mu;
ThreadPool* g_pool = nullptr;

ThreadPool* GlobalPool(int threads) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool == nullptr || g_pool->num_threads() != threads) {
    delete g_pool;
    g_pool = nullptr;  // stay null while the new pool constructs
    g_pool = new ThreadPool(threads);
  }
  return g_pool;
}

}  // namespace

void ParallelForShards(size_t begin, size_t end, size_t grain,
                       const std::function<void(size_t, size_t, size_t)>& fn) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const size_t shards = NumShards(end - begin, grain);
  // Checked here too, so the limit holds when the loop runs inline.
  if (shards > ThreadPool::kMaxTasks) {
    throw std::length_error("ParallelForShards: too many shards");
  }
  auto run_shard = [&](size_t s) {
    const size_t b = begin + s * grain;
    const size_t e = b + grain < end ? b + grain : end;
    fn(s, b, e);
  };
  const int threads = DefaultThreads();
  if (shards == 1 || threads <= 1 || tls_in_pool_task) {
    for (size_t s = 0; s < shards; ++s) run_shard(s);
    return;
  }
  GlobalPool(threads)->Apply(shards, run_shard);
}

void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t)>& fn) {
  ParallelForShards(begin, end, grain, [&fn](size_t, size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) fn(i);
  });
}

}  // namespace lightmirm
