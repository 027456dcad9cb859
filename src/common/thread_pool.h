// Deterministic parallel execution. A fixed-size pool (no work stealing)
// runs index-sharded loops whose shard structure depends only on the
// problem size and grain — never on the thread count — so any computation
// that writes disjoint slots, or that merges per-shard partials in shard
// order, produces bit-identical results at 1, 2 or N threads.
//
// The process-wide default thread count starts at the hardware concurrency
// and is adjusted with SetDefaultThreads (the `threads=` CLI knob). With a
// default of 1 every loop below runs inline on the calling thread, in shard
// order, with zero synchronization.
//
// Idle workers spin briefly watching for the next batch before parking on
// the condition variable (skipped when the pool is wider than the
// hardware), so a serving loop dispatching thousands of small batches per
// second does not pay a futex wakeup per batch.
#pragma once

#include <cstddef>
#include <functional>

namespace lightmirm {

/// max(1, std::thread::hardware_concurrency()).
int HardwareThreads();

/// Current process-wide default thread count (>= 1).
int DefaultThreads();

/// Sets the process-wide default thread count; n <= 0 restores the
/// hardware concurrency. The global pool is resized lazily on next use.
void SetDefaultThreads(int n);

/// RAII override of the default thread count (used by trainers honoring
/// TrainerOptions::threads and by the bench thread sweeps).
class ScopedDefaultThreads {
 public:
  /// n <= 0 leaves the current default untouched.
  explicit ScopedDefaultThreads(int n) : prev_(DefaultThreads()) {
    if (n > 0) SetDefaultThreads(n);
  }
  ~ScopedDefaultThreads() { SetDefaultThreads(prev_); }
  ScopedDefaultThreads(const ScopedDefaultThreads&) = delete;
  ScopedDefaultThreads& operator=(const ScopedDefaultThreads&) = delete;

 private:
  int prev_;
};

/// Number of shards a range of `count` elements splits into at the given
/// grain: ceil(count / grain); 0 for an empty range. Grain 0 is treated as
/// 1. This is the deterministic contract every parallel caller relies on.
size_t NumShards(size_t count, size_t grain);

/// Calls fn(shard, shard_begin, shard_end) for every shard of [begin, end)
/// at the given grain. Shards may run concurrently in any order; with one
/// thread they run inline in increasing shard order. The first exception
/// thrown (lowest shard index) is rethrown after all shards finish. Throws
/// std::length_error, at any thread count, for more than
/// ThreadPool::kMaxTasks shards.
void ParallelForShards(size_t begin, size_t end, size_t grain,
                       const std::function<void(size_t, size_t, size_t)>& fn);

/// Element-wise form: calls fn(i) for every i in [begin, end), batched into
/// shards of `grain` elements. Safe whenever iterations write disjoint
/// state.
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t)>& fn);

/// A fixed-size thread pool executing one index batch at a time. Most code
/// should use ParallelFor/ParallelForShards (which share one global pool);
/// the class is public for tests and for callers needing a private pool.
class ThreadPool {
 public:
  /// Spawns num_threads - 1 workers; the calling thread participates in
  /// every batch. num_threads <= 1 spawns nothing and runs inline.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Largest batch Apply accepts: claims count up in a 32-bit field, with
  /// headroom for the failed claims of threads draining a finished batch.
  static constexpr size_t kMaxTasks = size_t{1} << 31;

  /// Runs fn(t) for every t in [0, num_tasks) across the pool and blocks
  /// until all complete. Tasks are claimed from a shared counter (no work
  /// stealing, no per-thread queues). Rethrows the exception of the lowest
  /// failing task index. Calls from inside a pool task run inline (serial)
  /// rather than deadlocking. Throws std::length_error, at any thread
  /// count, when num_tasks exceeds kMaxTasks.
  void Apply(size_t num_tasks, const std::function<void(size_t)>& fn);

 private:
  struct Impl;
  Impl* impl_;
  int num_threads_;
};

}  // namespace lightmirm
