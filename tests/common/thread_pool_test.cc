#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace lightmirm {
namespace {

TEST(NumShardsTest, Math) {
  EXPECT_EQ(NumShards(0, 16), 0u);
  EXPECT_EQ(NumShards(1, 16), 1u);
  EXPECT_EQ(NumShards(16, 16), 1u);
  EXPECT_EQ(NumShards(17, 16), 2u);
  EXPECT_EQ(NumShards(32, 16), 2u);
  EXPECT_EQ(NumShards(33, 16), 3u);
  // Grain 0 behaves like grain 1.
  EXPECT_EQ(NumShards(5, 0), 5u);
}

TEST(DefaultThreadsTest, ScopedOverrideRestores) {
  const int before = DefaultThreads();
  {
    ScopedDefaultThreads guard(3);
    EXPECT_EQ(DefaultThreads(), 3);
    {
      // n <= 0 leaves the current default untouched.
      ScopedDefaultThreads noop(0);
      EXPECT_EQ(DefaultThreads(), 3);
    }
    EXPECT_EQ(DefaultThreads(), 3);
  }
  EXPECT_EQ(DefaultThreads(), before);
}

TEST(DefaultThreadsTest, SetZeroRestoresHardware) {
  SetDefaultThreads(2);
  EXPECT_EQ(DefaultThreads(), 2);
  SetDefaultThreads(0);
  EXPECT_EQ(DefaultThreads(), HardwareThreads());
}

TEST(ParallelForTest, EmptyRangeNeverCallsFn) {
  ScopedDefaultThreads guard(4);
  std::atomic<int> calls{0};
  ParallelFor(0, 0, 8, [&](size_t) { calls.fetch_add(1); });
  ParallelFor(5, 5, 8, [&](size_t) { calls.fetch_add(1); });
  ParallelForShards(3, 3, 8, [&](size_t, size_t, size_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnceGrainOne) {
  for (int threads : {1, 2, 8}) {
    ScopedDefaultThreads guard(threads);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    ParallelFor(0, hits.size(), 1, [&](size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForTest, NonZeroBeginAndCoarseGrain) {
  ScopedDefaultThreads guard(4);
  std::vector<int> hits(100, 0);
  ParallelFor(10, 100, 7, [&](size_t i) { hits[i] += 1; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], i >= 10 ? 1 : 0) << "index " << i;
  }
}

TEST(ParallelForShardsTest, ShardStructureMatchesNumShards) {
  for (int threads : {1, 4}) {
    ScopedDefaultThreads guard(threads);
    const size_t begin = 3, end = 103, grain = 16;
    const size_t expect = NumShards(end - begin, grain);
    std::vector<std::pair<size_t, size_t>> ranges(expect, {0, 0});
    std::atomic<size_t> calls{0};
    ParallelForShards(begin, end, grain,
                      [&](size_t shard, size_t b, size_t e) {
                        ASSERT_LT(shard, expect);
                        ranges[shard] = {b, e};
                        calls.fetch_add(1);
                      });
    EXPECT_EQ(calls.load(), expect);
    // Shards tile [begin, end) contiguously in shard order.
    size_t cursor = begin;
    for (size_t s = 0; s < expect; ++s) {
      EXPECT_EQ(ranges[s].first, cursor);
      EXPECT_GT(ranges[s].second, ranges[s].first);
      EXPECT_LE(ranges[s].second - ranges[s].first, grain);
      cursor = ranges[s].second;
    }
    EXPECT_EQ(cursor, end);
  }
}

TEST(ParallelForTest, ExceptionPropagates) {
  for (int threads : {1, 4}) {
    ScopedDefaultThreads guard(threads);
    EXPECT_THROW(
        ParallelFor(0, 64, 1,
                    [&](size_t i) {
                      if (i == 13) throw std::runtime_error("boom");
                    }),
        std::runtime_error);
  }
}

TEST(ParallelForTest, LowestFailingShardWins) {
  ScopedDefaultThreads guard(4);
  try {
    ParallelFor(0, 64, 1, [&](size_t i) {
      if (i == 7) throw std::runtime_error("seven");
      if (i == 50) throw std::runtime_error("fifty");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "seven");
  }
}

TEST(ParallelForTest, NestedCallsRunInline) {
  ScopedDefaultThreads guard(4);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  ParallelFor(0, 8, 1, [&](size_t outer) {
    // A nested loop from inside a pool task must not deadlock; it runs
    // serially on the worker.
    ParallelFor(0, 8, 1, [&](size_t inner) {
      hits[outer * 8 + inner].fetch_add(1);
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ReuseAcrossManyBatches) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  for (int round = 0; round < 50; ++round) {
    std::vector<int> out(round + 1, 0);
    pool.Apply(out.size(), [&](size_t t) { out[t] = static_cast<int>(t); });
    long long sum = std::accumulate(out.begin(), out.end(), 0LL);
    EXPECT_EQ(sum, static_cast<long long>(round) * (round + 1) / 2);
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  std::vector<size_t> order;
  pool.Apply(5, [&](size_t t) { order.push_back(t); });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ExceptionDoesNotPoisonPool) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.Apply(16,
                          [&](size_t t) {
                            if (t % 2 == 0) throw std::runtime_error("x");
                          }),
               std::runtime_error);
  // The pool stays usable after a failed batch.
  std::atomic<int> calls{0};
  pool.Apply(16, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 16);
}

// An exception whose live copies are counted.
class CountedError : public std::runtime_error {
 public:
  explicit CountedError(std::atomic<int>* live)
      : std::runtime_error("counted"), live_(live) {
    live_->fetch_add(1);
  }
  CountedError(const CountedError& other)
      : std::runtime_error(other), live_(other.live_) {
    live_->fetch_add(1);
  }
  ~CountedError() override { live_->fetch_sub(1); }

 private:
  std::atomic<int>* live_;
};

// Every exception a batch threw except the one Apply rethrows is destroyed
// before Apply returns, so no pool thread runs an exception's destructor
// while the caller reads the one it caught.
TEST(ThreadPoolTest, FailedTasksReleaseTheirExceptionsBeforeApplyReturns) {
  ThreadPool pool(4);
  std::atomic<int> live{0};
  for (int round = 0; round < 50; ++round) {
    try {
      pool.Apply(64, [&](size_t) { throw CountedError(&live); });
      FAIL() << "expected an exception";
    } catch (const CountedError& e) {
      EXPECT_EQ(live.load(), 1) << "round " << round;
      EXPECT_STREQ(e.what(), "counted");
    }
    EXPECT_EQ(live.load(), 0) << "round " << round;
  }
}

// Drops the calling thread, and the threads it creates afterwards (they
// inherit its nice value), to the lowest CPU priority, so a stress test
// soaks up idle CPU without slowing the tests ctest runs beside it.
void LowerThisThreadPriority() {
#if defined(__linux__)
  setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)), 19);
#endif
}

// Regression for a stale-claim race: a worker's last claim of one batch
// could land before the next batch reset the claim counter while its limit
// check already saw the next batch's larger limit, so it ran a task of the
// new batch twice — overshooting the completion count (Apply then waited
// forever) or outliving its batch. Two caller threads each alternate
// batches of 2 and 4 tasks on their own 3-thread pool for two seconds,
// which oversubscribes the host and preempts workers between claim and
// check. A hang fails the test at a deadline instead of hanging the
// suite: the stuck callers are then detached and their pools leaked,
// everything they touch being owned by the shared state.
TEST(ThreadPoolTest, AlternatingBatchSizesNeverRerunAStaleClaim) {
  struct State {
    std::atomic<int> finished{0};
    std::atomic<long> batches{0};
    std::atomic<long> bad_batches{0};
  };
  auto state = std::make_shared<State>();
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([state] {
      LowerThisThreadPriority();
      auto* pool = new ThreadPool(3);
      // One long-lived task object, so a stale claim that reads an old
      // batch's `fn` still calls valid code and shows up in `runs`.
      struct Runs {
        std::atomic<int> of[4] = {};
      };
      auto runs = std::make_shared<Runs>();
      const std::function<void(size_t)> task = [runs](size_t t) {
        runs->of[t].fetch_add(1, std::memory_order_relaxed);
      };
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      for (long b = 0; std::chrono::steady_clock::now() < until; ++b) {
        const size_t n = b % 2 == 0 ? 2 : 4;
        for (std::atomic<int>& r : runs->of) r.store(0);
        pool->Apply(n, task);
        for (size_t t = 0; t < 4; ++t) {
          if (runs->of[t].load() != (t < n ? 1 : 0)) {
            state->bad_batches.fetch_add(1);
            break;
          }
        }
        state->batches.fetch_add(1, std::memory_order_relaxed);
      }
      delete pool;
      state->finished.fetch_add(1);
    });
  }
  const int want = static_cast<int>(callers.size());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (state->finished.load() < want &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  const bool hung = state->finished.load() < want;
  for (std::thread& caller : callers) {
    if (hung) {
      caller.detach();
    } else {
      caller.join();
    }
  }
  EXPECT_FALSE(hung) << "Apply hung after " << state->batches.load()
                     << " batches";
  EXPECT_EQ(state->bad_batches.load(), 0)
      << "tasks ran twice or not at all in some of "
      << state->batches.load() << " batches";
}

TEST(ThreadPoolTest, RejectsBatchesBeyondTheClaimField) {
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    EXPECT_THROW(pool.Apply(ThreadPool::kMaxTasks + 1, [](size_t) {}),
                 std::length_error);
    ScopedDefaultThreads guard(threads);
    EXPECT_THROW(ParallelForShards(0, ThreadPool::kMaxTasks + 1, 1,
                                   [](size_t, size_t, size_t) {}),
                 std::length_error);
  }
}

TEST(ParallelForTest, SerialAndParallelSumsMatchBitwise) {
  // The canonical merge pattern: disjoint per-shard partials reduced in
  // shard order must not depend on the thread count.
  const size_t n = 10000, grain = 64;
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) {
    values[i] = std::sin(static_cast<double>(i)) * 1e-3;
  }
  auto run = [&](int threads) {
    ScopedDefaultThreads guard(threads);
    std::vector<double> partial(NumShards(n, grain), 0.0);
    ParallelForShards(0, n, grain, [&](size_t shard, size_t b, size_t e) {
      double acc = 0.0;
      for (size_t i = b; i < e; ++i) acc += values[i];
      partial[shard] = acc;
    });
    double total = 0.0;
    for (double p : partial) total += p;
    return total;
  };
  const double serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

}  // namespace
}  // namespace lightmirm
