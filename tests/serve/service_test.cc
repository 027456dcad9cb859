// BatchDispatcher and ShardedScoringService: request partitioning,
// work-conserving flushes (idle / explicit), atomic shed, row-aligned
// completions across shards, per-shard monitor feeds, and the merged
// health verdict matching a single monitor over the same traffic. Tests
// that need rows to stay pending hold them with the scorer, not a clock:
// a scorer parked on a latch keeps its flush cycle running, and rows
// submitted meanwhile queue behind it. The concurrency tests run under
// TSan in CI (job `tsan`).
#include "serve/service/sharded_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/gbdt_lr_model.h"
#include "data/loan_generator.h"
#include "obs/monitor.h"
#include "serve/service/dispatcher.h"

namespace lightmirm::serve {

// Reaches BatchDispatcher's private test seam (dispatcher.h): the idle
// hook, and the wake flags a test must see set before it lets a held
// flush cycle finish.
class DispatcherTestPeer {
 public:
  static Result<std::unique_ptr<BatchDispatcher>> Create(
      DispatcherOptions options, ShardScoreFn score_fn,
      BatchDispatcher::IdleHook idle_hook) {
    return BatchDispatcher::Create(std::move(options), std::move(score_fn),
                                   std::move(idle_hook));
  }
  /// Returns once a Flush() call has registered with the loop.
  static void AwaitFlushRequest(BatchDispatcher& d) {
    Await(d, [&d] { return d.flush_requested_; });
  }
  /// Returns once the destructor has asked the loop to stop.
  static void AwaitStop(BatchDispatcher& d) {
    Await(d, [&d] { return d.stop_; });
  }

 private:
  template <typename Pred>
  static void Await(BatchDispatcher& d, Pred pred) {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(d.wake_mu_);
        if (pred()) return;
      }
      std::this_thread::yield();
    }
  }
};

namespace {

data::Dataset GenSet(int rows_per_year, uint64_t seed) {
  data::LoanGeneratorOptions gen;
  gen.rows_per_year = rows_per_year;
  gen.last_year = 2017;
  gen.seed = seed;
  return *data::LoanGenerator(gen).Generate();
}

core::GbdtLrModel TrainModel(core::Method method, uint64_t seed) {
  core::GbdtLrOptions options;
  options.booster.num_trees = 12;
  options.booster.tree.max_leaves = 6;
  options.trainer.epochs = 10;
  options.min_env_rows = 30;
  auto model = core::GbdtLrModel::Train(GenSet(800, seed), method, options);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

// A dispatcher whose "scorer" computes a value any test can predict:
// score = first feature + 1000 * shard, so both the routed shard and the
// row alignment are visible in every returned score.
Result<std::unique_ptr<BatchDispatcher>> MakeFakeDispatcher(
    DispatcherOptions options) {
  return BatchDispatcher::Create(
      options, [](size_t shard, const ShardBatch& batch,
                  std::vector<double>* scores) {
        for (size_t r = 0; r < batch.rows; ++r) {
          (*scores)[r] = batch.features[r * batch.width] + 1000.0 * shard;
        }
        return Status::OK();
      });
}

// A scorer parked on a latch: each call records the first feature of every
// row it scores, then blocks until the test opens the latch (which stays
// open). While it is parked its flush cycle keeps running, so rows
// submitted meanwhile queue behind it. Scores match MakeFakeDispatcher's.
struct HeldScorer {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  int entered = 0;
  std::vector<double> scored;  ///< row tags in scoring order

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void AwaitEntered(int calls) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return entered >= calls; });
  }
  static ShardScoreFn Fn(std::shared_ptr<HeldScorer> self) {
    return [self](size_t shard, const ShardBatch& batch,
                  std::vector<double>* scores) {
      std::unique_lock<std::mutex> lock(self->mu);
      ++self->entered;
      self->cv.notify_all();
      for (size_t r = 0; r < batch.rows; ++r) {
        self->scored.push_back(batch.features[r * batch.width]);
      }
      self->cv.wait(lock, [&] { return self->open; });
      for (size_t r = 0; r < batch.rows; ++r) {
        (*scores)[r] = batch.features[r * batch.width] + 1000.0 * shard;
      }
      return Status::OK();
    };
  }
};

// Counts completions per request tag; every completion must be a success.
struct Completions {
  std::mutex mu;
  std::map<int, int> calls;

  BatchDispatcher::CompletionFn For(int tag) {
    return [this, tag](Result<ScoreResponse> response) {
      EXPECT_TRUE(response.ok()) << "request " << tag;
      std::lock_guard<std::mutex> lock(mu);
      ++calls[tag];
    };
  }
  int Calls(int tag) {
    std::lock_guard<std::mutex> lock(mu);
    return calls.count(tag) == 0 ? 0 : calls.at(tag);
  }
  int Total() {
    std::lock_guard<std::mutex> lock(mu);
    int total = 0;
    for (const auto& [tag, n] : calls) total += n;
    return total;
  }
};

// `rows` rows tagged `tag` (row i carries feature tag + i / 100.0).
ScoreRequest TaggedRequest(int tag, size_t rows, int64_t id_base = 0) {
  ScoreRequest request;
  for (size_t i = 0; i < rows; ++i) {
    request.loan_ids.push_back(id_base + static_cast<int64_t>(i));
    request.features.push_back(tag + static_cast<double>(i) / 100.0);
  }
  return request;
}

TEST(DispatcherTest, CreateValidatesOptions) {
  const auto ok_fn = [](size_t, const ShardBatch&, std::vector<double>*) {
    return Status::OK();
  };
  DispatcherOptions options;
  options.feature_width = 1;
  EXPECT_TRUE(BatchDispatcher::Create(options, ok_fn).ok());
  EXPECT_FALSE(BatchDispatcher::Create(options, nullptr).ok());

  DispatcherOptions bad = options;
  bad.num_shards = 0;
  EXPECT_FALSE(BatchDispatcher::Create(bad, ok_fn).ok());
  bad = options;
  bad.feature_width = 0;
  EXPECT_FALSE(BatchDispatcher::Create(bad, ok_fn).ok());
  bad = options;
  bad.max_pending_rows = 0;
  EXPECT_FALSE(BatchDispatcher::Create(bad, ok_fn).ok());
}

TEST(DispatcherTest, ShardMappingIsStableAndBalanced) {
  DispatcherOptions options;
  options.num_shards = 8;
  options.feature_width = 1;
  auto a = MakeFakeDispatcher(options);
  auto b = MakeFakeDispatcher(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::vector<size_t> counts(options.num_shards, 0);
  for (int64_t id = 0; id < 10000; ++id) {
    const size_t shard = (*a)->ShardOf(id);
    ASSERT_LT(shard, options.num_shards);
    // The mapping is a pure function of (id, num_shards) — no per-process
    // seed — so replays route identically across runs and machines.
    EXPECT_EQ(shard, (*b)->ShardOf(id));
    ++counts[shard];
  }
  // Sequential ids must spread (std::hash would put them all on id % N).
  for (const size_t count : counts) {
    EXPECT_GT(count, 1000u);
    EXPECT_LT(count, 1500u);
  }
}

TEST(DispatcherTest, ScoresLandRowAlignedAcrossShards) {
  DispatcherOptions options;
  options.num_shards = 4;
  options.feature_width = 2;
  auto dispatcher = MakeFakeDispatcher(options);
  ASSERT_TRUE(dispatcher.ok());

  ScoreRequest request;
  std::vector<double> expected;
  for (int i = 0; i < 100; ++i) {
    const int64_t loan_id = 7919 * i;  // spread over every shard
    request.loan_ids.push_back(loan_id);
    request.features.push_back(i);
    request.features.push_back(-i);
    expected.push_back(i + 1000.0 * (*dispatcher)->ShardOf(loan_id));
  }
  const auto response = (*dispatcher)->Score(std::move(request));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  // Scores arrive in submit row order even though four shard batches
  // scored them concurrently — and each row's score proves it was scored
  // on exactly the shard ShardOf names.
  EXPECT_EQ(response->scores, expected);
}

TEST(DispatcherTest, KeepsEnvsAndLabelsRowAlignedWithinShardBatches) {
  // The scorer sees each shard batch with envs/labels aligned to its
  // rows; rows whose request omitted them carry -1.
  struct Seen {
    std::mutex mu;
    std::vector<ShardBatch> batches;
  };
  auto seen = std::make_shared<Seen>();
  DispatcherOptions options;
  options.num_shards = 3;
  options.feature_width = 1;
  auto dispatcher = BatchDispatcher::Create(
      options, [seen](size_t, const ShardBatch& batch,
                      std::vector<double>* scores) {
        {
          std::lock_guard<std::mutex> lock(seen->mu);
          seen->batches.push_back(batch);
        }
        scores->assign(batch.rows, 0.0);
        return Status::OK();
      });
  ASSERT_TRUE(dispatcher.ok());

  ScoreRequest with;
  for (int i = 0; i < 30; ++i) {
    with.loan_ids.push_back(31 * i);
    with.features.push_back(i);
    with.envs.push_back(i % 5);
    with.labels.push_back(i % 2);
  }
  ASSERT_TRUE((*dispatcher)->Score(std::move(with)).ok());
  ScoreRequest without;
  for (int i = 0; i < 10; ++i) {
    without.loan_ids.push_back(17 * i);
    without.features.push_back(100 + i);
  }
  ASSERT_TRUE((*dispatcher)->Score(std::move(without)).ok());

  std::lock_guard<std::mutex> lock(seen->mu);
  size_t rows_seen = 0;
  for (const ShardBatch& batch : seen->batches) {
    ASSERT_EQ(batch.envs.size(), batch.rows);
    ASSERT_EQ(batch.labels.size(), batch.rows);
    for (size_t r = 0; r < batch.rows; ++r) {
      const int i = static_cast<int>(batch.features[r]);
      if (i < 100) {
        EXPECT_EQ(batch.envs[r], i % 5);
        EXPECT_EQ(batch.labels[r], i % 2);
      } else {
        EXPECT_EQ(batch.envs[r], -1);
        EXPECT_EQ(batch.labels[r], -1);
      }
    }
    rows_seen += batch.rows;
  }
  EXPECT_EQ(rows_seen, 40u);
}

TEST(DispatcherTest, IdleDispatcherFlushesASingleRowAtOnce) {
  // No deadline and no size trigger: an idle dispatcher flushes a lone
  // row as soon as it lands, without any Flush() call.
  DispatcherOptions options;
  options.num_shards = 2;
  options.feature_width = 1;
  auto dispatcher = MakeFakeDispatcher(options);
  ASSERT_TRUE(dispatcher.ok());
  ScoreRequest request;
  request.loan_ids.push_back(99);
  request.features.push_back(1.0);
  const auto response = (*dispatcher)->Score(std::move(request));
  ASSERT_TRUE(response.ok());
  const DispatcherStats stats = (*dispatcher)->stats();
  EXPECT_GE(stats.idle_flushes, 1u);
  EXPECT_EQ(stats.explicit_flushes, 0u);
  EXPECT_EQ(stats.size_flushes, 0u);
  EXPECT_EQ(stats.deadline_flushes, 0u);
}

TEST(DispatcherTest, FlushDrainsEveryPendingRow) {
  // Request 0 parks its cycle in the scorer; requests 1..9 queue behind
  // it, and Flush() is called while all of them are still pending.
  DispatcherOptions options;
  options.num_shards = 4;
  options.feature_width = 1;
  auto scorer = std::make_shared<HeldScorer>();
  Completions completions;
  auto dispatcher = BatchDispatcher::Create(options, HeldScorer::Fn(scorer));
  ASSERT_TRUE(dispatcher.ok());
  ASSERT_TRUE((*dispatcher)
                  ->Submit(TaggedRequest(0, 3), completions.For(0))
                  .ok());
  scorer->AwaitEntered(1);
  // EXPECT, not ASSERT, while a cycle is held: an early return would
  // block the destructor on the closed latch.
  for (int r = 1; r < 10; ++r) {
    EXPECT_TRUE((*dispatcher)
                    ->Submit(TaggedRequest(r, 3, r * 100),
                             completions.For(r))
                    .ok());
  }
  std::atomic<int> completed_at_return{-1};
  std::thread flusher([&] {
    (*dispatcher)->Flush();
    completed_at_return = completions.Total();
  });
  DispatcherTestPeer::AwaitFlushRequest(**dispatcher);
  EXPECT_EQ(completions.Total(), 0);
  scorer->Open();
  flusher.join();
  EXPECT_EQ(completed_at_return, 10);
  const DispatcherStats stats = (*dispatcher)->stats();
  EXPECT_GE(stats.idle_flushes, 1u);      // request 0's cycle
  EXPECT_GE(stats.explicit_flushes, 1u);  // the rows Flush() found queued
  EXPECT_EQ(stats.requests, 10u);
  EXPECT_EQ(stats.rows, 30u);
}

TEST(DispatcherTest, ShedsAtomicallyWhenAShardIsFull) {
  // Hold a flush cycle in the scorer so the accumulator refills behind
  // it, then overflow it.
  DispatcherOptions options;
  options.num_shards = 1;
  options.feature_width = 1;
  options.max_pending_rows = 8;
  auto scorer = std::make_shared<HeldScorer>();
  Completions completions;
  auto dispatcher = BatchDispatcher::Create(options, HeldScorer::Fn(scorer));
  ASSERT_TRUE(dispatcher.ok());

  // An idle dispatcher flushes these at once; the cycle parks in the
  // scorer with the accumulator already swapped out...
  ASSERT_TRUE(
      (*dispatcher)->Submit(TaggedRequest(1, 8), completions.For(1)).ok());
  scorer->AwaitEntered(1);
  // ...so this refills the accumulator exactly to the cap...
  EXPECT_TRUE(
      (*dispatcher)->Submit(TaggedRequest(2, 8), completions.For(2)).ok());
  // ...and one more row must shed, leaving no partial rows behind.
  const Status shed =
      (*dispatcher)->Submit(TaggedRequest(3, 1), completions.For(3));
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);

  scorer->Open();
  (*dispatcher)->Flush();
  EXPECT_EQ(completions.Total(), 2);  // the shed request's done never fired
  EXPECT_EQ(completions.Calls(3), 0);
  const DispatcherStats stats = (*dispatcher)->stats();
  EXPECT_EQ(stats.shed_requests, 1u);
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.rows, 16u);
}

TEST(DispatcherTest, RejectsMalformedRequestsWithoutCompleting) {
  DispatcherOptions options;
  options.num_shards = 2;
  options.feature_width = 2;
  auto dispatcher = MakeFakeDispatcher(options);
  ASSERT_TRUE(dispatcher.ok());
  std::atomic<int> called{0};
  const auto done = [&called](Result<ScoreResponse>) {
    called.fetch_add(1);
  };

  ScoreRequest request;
  request.loan_ids = {1, 2};
  request.features = {0.0, 0.0, 0.0};  // 3 values for 2 rows of width 2
  EXPECT_FALSE((*dispatcher)->Submit(request, done).ok());
  request.features = {0.0, 0.0, 0.0, 0.0};
  request.envs = {0};  // mis-sized
  EXPECT_FALSE((*dispatcher)->Submit(request, done).ok());
  request.envs = {0, 1};
  request.labels = {1};  // mis-sized
  EXPECT_FALSE((*dispatcher)->Submit(request, done).ok());
  request.labels = {1, 2};  // 2 is not a label
  EXPECT_FALSE((*dispatcher)->Submit(request, done).ok());
  EXPECT_FALSE((*dispatcher)->Submit(ScoreRequest{}, nullptr).ok());
  EXPECT_EQ(called.load(), 0);

  // An empty request is valid and completes inline.
  const auto empty = (*dispatcher)->Score(ScoreRequest{});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->scores.empty());
  EXPECT_EQ((*dispatcher)->stats().requests, 0u);
}

TEST(DispatcherTest, ShardErrorReachesTheCompletion) {
  DispatcherOptions options;
  options.num_shards = 2;
  options.feature_width = 1;
  auto dispatcher = BatchDispatcher::Create(
      options,
      [](size_t, const ShardBatch&, std::vector<double>*) {
        return Status::Internal("scorer died");
      });
  ASSERT_TRUE(dispatcher.ok());
  ScoreRequest request;
  request.loan_ids = {7};
  request.features = {1.0};
  const auto response = (*dispatcher)->Score(std::move(request));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInternal);
}

TEST(DispatcherTest, DestructionFlushesAndCompletesPendingRows) {
  // Request 1 parks its cycle in the scorer and request 2 queues behind
  // it; the destructor runs while both are pending and must score and
  // complete them, not drop them.
  DispatcherOptions options;
  options.num_shards = 2;
  options.feature_width = 1;
  auto scorer = std::make_shared<HeldScorer>();
  Completions completions;
  auto created = BatchDispatcher::Create(options, HeldScorer::Fn(scorer));
  ASSERT_TRUE(created.ok());
  std::unique_ptr<BatchDispatcher> dispatcher = std::move(*created);
  BatchDispatcher* raw = dispatcher.get();
  ASSERT_TRUE(raw->Submit(TaggedRequest(1, 3), completions.For(1)).ok());
  scorer->AwaitEntered(1);
  EXPECT_TRUE(raw->Submit(TaggedRequest(2, 3, 10), completions.For(2)).ok());
  std::thread destroyer([&] { dispatcher.reset(); });
  DispatcherTestPeer::AwaitStop(*raw);
  EXPECT_EQ(completions.Total(), 0);
  scorer->Open();
  destroyer.join();
  EXPECT_EQ(completions.Calls(1), 1);
  EXPECT_EQ(completions.Calls(2), 1);
}

TEST(DispatcherTest, SubmitWakeupsAreNeverLost) {
  // Stress companion to SubmitInTheIdleWindowIsNeverLost: with no
  // deadline, nothing but its own wakeup flushes a blocking single-row
  // Score once the other callers have finished — a single lost wakeup
  // hangs the test instead of passing slowly. Runs under TSan in CI.
  DispatcherOptions options;
  options.num_shards = 2;
  options.feature_width = 1;
  auto dispatcher = MakeFakeDispatcher(options);
  ASSERT_TRUE(dispatcher.ok());
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const int64_t loan_id = 1000 * t + i;
        ScoreRequest request;
        request.loan_ids = {loan_id};
        request.features = {static_cast<double>(i)};
        const auto response = (*dispatcher)->Score(std::move(request));
        ASSERT_TRUE(response.ok()) << response.status().ToString();
        ASSERT_EQ(response->scores.size(), 1u);
        EXPECT_EQ(response->scores[0],
                  i + 1000.0 * (*dispatcher)->ShardOf(loan_id));
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ((*dispatcher)->stats().rows, 800u);
}

TEST(DispatcherTest, SubmitInTheIdleWindowIsNeverLost) {
  // The idle hook runs on the dispatcher thread after a scan found every
  // shard empty and before the loop waits. A Submit from it lands its
  // rows and its notify in exactly the window a lost wakeup strands them
  // in: nobody is waiting yet, so the notify is dropped. The loop must
  // notice the moved wake sequence and rescan instead of sleeping. With
  // the wait's predicate removed (`wake_cv_.wait(lock)`, the shape of the
  // original race) the row is never scored and this test fails every
  // run. Bounded wait, no sleeps.
  struct Done {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
  };
  auto done = std::make_shared<Done>();
  auto armed = std::make_shared<std::atomic<bool>>(true);
  DispatcherOptions options;
  options.num_shards = 2;
  options.feature_width = 1;
  auto dispatcher = DispatcherTestPeer::Create(
      options,
      [](size_t, const ShardBatch& batch, std::vector<double>* scores) {
        scores->assign(batch.rows, 1.0);
        return Status::OK();
      },
      [done, armed](BatchDispatcher& self) {
        if (!armed->exchange(false)) return;
        const Status submitted = self.Submit(
            TaggedRequest(7, 1), [done](Result<ScoreResponse> response) {
              EXPECT_TRUE(response.ok());
              {
                std::lock_guard<std::mutex> lock(done->mu);
                done->done = true;
              }
              done->cv.notify_all();
            });
        EXPECT_TRUE(submitted.ok());
      });
  ASSERT_TRUE(dispatcher.ok());
  std::unique_lock<std::mutex> lock(done->mu);
  EXPECT_TRUE(done->cv.wait_for(lock, std::chrono::seconds(5),
                                [&] { return done->done; }))
      << "a row submitted between the idle scan and the wait was stranded";
  EXPECT_FALSE(armed->load());
}

// Interleavings of Submit, Flush, shed and stop around a held flush cycle.
// Each step runs while the latch holds the first cycle, so the state it
// meets is fixed by construction, not by timing. Every scenario then
// checks the dispatcher's three promises: every accepted row is scored
// and completed exactly once; a shed request has no row scored anywhere
// (never half-enqueued); and Flush() returns only after all work accepted
// before it has completed.
TEST(DispatcherInterleavingTest, HeldCycleInterleavingsKeepTheInvariants) {
  struct Harness {
    std::shared_ptr<HeldScorer> scorer = std::make_shared<HeldScorer>();
    Completions completions;
    std::unique_ptr<BatchDispatcher> dispatcher;
    BatchDispatcher* raw = nullptr;
    std::vector<std::vector<int64_t>> shard_ids;  ///< loan ids per shard
    std::map<int, size_t> accepted;               ///< tag -> rows
    std::vector<int> shed;

    // A request tagged `tag` with `rows[s]` rows on shard s.
    Status Submit(int tag, std::vector<size_t> rows) {
      ScoreRequest request;
      size_t total = 0;
      for (size_t s = 0; s < rows.size(); ++s) {
        for (size_t i = 0; i < rows[s]; ++i) {
          request.loan_ids.push_back(shard_ids[s][i]);
          request.features.push_back(tag + static_cast<double>(total++) /
                                               100.0);
        }
      }
      const Status status =
          raw->Submit(std::move(request), completions.For(tag));
      if (status.ok()) {
        accepted[tag] = total;
      } else {
        shed.push_back(tag);
      }
      return status;
    }
    // Flush() on its own thread; records how many requests had completed
    // when it returned.
    std::thread FlushAsync(std::atomic<int>* completed_at_return) {
      std::thread flusher([this, completed_at_return] {
        raw->Flush();
        *completed_at_return = completions.Total();
      });
      DispatcherTestPeer::AwaitFlushRequest(*raw);
      return flusher;
    }
  };
  struct Scenario {
    const char* name;
    std::function<void(Harness&)> drive;
  };
  const std::vector<Scenario> scenarios = {
      {"submit during a running cycle",
       [](Harness& h) {
         ASSERT_TRUE(h.Submit(1, {2, 2}).ok());
         h.scorer->AwaitEntered(1);
         // Queues behind the held cycle: nothing completes yet.
         ASSERT_TRUE(h.Submit(2, {1, 3}).ok());
         EXPECT_EQ(h.completions.Total(), 0);
         h.scorer->Open();
         h.raw->Flush();
         EXPECT_EQ(h.completions.Total(), 2);
         // Cycles are serialized, so the held cycle scored request 1
         // alone and request 2's rows came after it.
         std::lock_guard<std::mutex> lock(h.scorer->mu);
         ASSERT_EQ(h.scorer->scored.size(), 8u);
         for (size_t i = 0; i < 4; ++i) EXPECT_LT(h.scorer->scored[i], 2.0);
         for (size_t i = 4; i < 8; ++i) EXPECT_GE(h.scorer->scored[i], 2.0);
       }},
      {"shed while Flush waits",
       [](Harness& h) {
         ASSERT_TRUE(h.Submit(1, {1, 0}).ok());
         h.scorer->AwaitEntered(1);
         ASSERT_TRUE(h.Submit(2, {4, 1}).ok());  // shard 0 at its cap
         std::atomic<int> completed_at_return{-1};
         std::thread flusher = h.FlushAsync(&completed_at_return);
         // Shard 0 is full, so the whole request sheds: its shard-1 row
         // must not be appended either.
         const Status shed = h.Submit(3, {1, 1});
         EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
         EXPECT_EQ(completed_at_return, -1);
         h.scorer->Open();
         flusher.join();
         EXPECT_EQ(completed_at_return, 2);
       }},
      {"submit while Flush waits",
       [](Harness& h) {
         ASSERT_TRUE(h.Submit(1, {1, 1}).ok());
         h.scorer->AwaitEntered(1);
         std::atomic<int> completed_at_return{-1};
         std::thread flusher = h.FlushAsync(&completed_at_return);
         // Accepted after Flush() began; Flush() drains it too.
         EXPECT_TRUE(h.Submit(2, {2, 2}).ok());
         h.scorer->Open();
         flusher.join();
         EXPECT_EQ(completed_at_return, 2);
       }},
      {"stop with rows held",
       [](Harness& h) {
         ASSERT_TRUE(h.Submit(1, {2, 1}).ok());
         h.scorer->AwaitEntered(1);
         ASSERT_TRUE(h.Submit(2, {1, 2}).ok());
         std::thread destroyer([&h] { h.dispatcher.reset(); });
         DispatcherTestPeer::AwaitStop(*h.raw);
         EXPECT_EQ(h.completions.Total(), 0);
         h.scorer->Open();
         destroyer.join();
         EXPECT_EQ(h.completions.Total(), 2);
       }},
  };

  for (const Scenario& scenario : scenarios) {
    SCOPED_TRACE(scenario.name);
    Harness h;
    DispatcherOptions options;
    options.num_shards = 2;
    options.feature_width = 1;
    options.max_pending_rows = 4;
    auto created = BatchDispatcher::Create(options, HeldScorer::Fn(h.scorer));
    ASSERT_TRUE(created.ok());
    h.dispatcher = std::move(*created);
    h.raw = h.dispatcher.get();
    h.shard_ids.resize(options.num_shards);
    for (int64_t id = 0; h.shard_ids[0].size() < 8 ||
                         h.shard_ids[1].size() < 8;
         ++id) {
      h.shard_ids[h.raw->ShardOf(id)].push_back(id);
    }
    scenario.drive(h);
    h.scorer->Open();
    h.dispatcher.reset();  // drains anything a failed step left pending

    std::map<int, size_t> scored_rows;
    for (const double tag : h.scorer->scored) {
      ++scored_rows[static_cast<int>(tag)];
    }
    for (const auto& [tag, rows] : h.accepted) {
      EXPECT_EQ(h.completions.Calls(tag), 1) << "request " << tag;
      EXPECT_EQ(scored_rows[tag], rows) << "request " << tag;
    }
    for (const int tag : h.shed) {
      EXPECT_EQ(h.completions.Calls(tag), 0) << "request " << tag;
      EXPECT_EQ(scored_rows[tag], 0u) << "request " << tag;
    }
  }
}

ScoreRequest DatasetRequest(const data::Dataset& set, int64_t id_base,
                            bool with_labels) {
  ScoreRequest request;
  request.features = set.features().data();
  request.envs = set.envs();
  if (with_labels) request.labels = set.labels();
  for (size_t i = 0; i < set.NumRows(); ++i) {
    request.loan_ids.push_back(id_base + static_cast<int64_t>(i));
  }
  return request;
}

TEST(ServiceTest, CreateValidatesOptions) {
  ServiceOptions empty_id;
  empty_id.initial_version_id = "";
  EXPECT_FALSE(ShardedScoringService::Create(
                   TrainModel(core::Method::kErm, 1), empty_id)
                   .ok());
  ServiceOptions no_shards;
  no_shards.dispatcher.num_shards = 0;
  EXPECT_FALSE(ShardedScoringService::Create(
                   TrainModel(core::Method::kErm, 1), no_shards)
                   .ok());
}

TEST(ServiceTest, DefaultFeatureWidthComesFromTheModel) {
  core::GbdtLrModel model = TrainModel(core::Method::kErm, 6);
  const size_t width = model.compiled_forest()->min_feature_count();
  ASSERT_GT(width, 0u);
  auto service = ShardedScoringService::Create(std::move(model), {});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ScoreRequest request;
  request.loan_ids = {42};
  request.features.assign(width, 0.0);
  const auto response = (*service)->Score(std::move(request));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->scores.size(), 1u);
  ScoreRequest mis_sized;
  mis_sized.loan_ids = {43};
  mis_sized.features.assign(width + 1, 0.0);
  EXPECT_FALSE((*service)->Score(std::move(mis_sized)).ok());
}

TEST(ServiceTest, ScoresBitIdenticalToTheDirectSession) {
  // kErmFineTune carries per-env weight overrides, so any env/row
  // misalignment across the shard partition would change scores.
  core::GbdtLrModel model = TrainModel(core::Method::kErmFineTune, 3);
  const data::Dataset batch = GenSet(150, 9);
  const std::vector<double> direct =
      *model.scoring_session()->Score(batch.features(), &batch.envs());

  ServiceOptions options;
  options.dispatcher.num_shards = 4;
  options.dispatcher.feature_width = batch.NumFeatures();
  auto service = ShardedScoringService::Create(std::move(model), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const auto response =
      (*service)->Score(DatasetRequest(batch, 5000, /*with_labels=*/false));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->scores, direct);
}

TEST(ServiceShardTest, MonitorsObserveDisjointSlicesOfTheTraffic) {
  core::GbdtLrModel model = TrainModel(core::Method::kErm, 4);
  const data::Dataset traffic = GenSet(200, 11);
  ServiceOptions options;
  options.dispatcher.num_shards = 3;
  options.dispatcher.feature_width = traffic.NumFeatures();
  options.monitor.window = 8192;
  auto service = ShardedScoringService::Create(std::move(model), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  const int64_t id_base = 90000;
  ASSERT_TRUE((*service)
                  ->Score(DatasetRequest(traffic, id_base,
                                         /*with_labels=*/true))
                  .ok());
  (*service)->Flush();

  std::vector<uint64_t> expected((*service)->num_shards(), 0);
  for (size_t i = 0; i < traffic.NumRows(); ++i) {
    ++expected[(*service)->ShardOf(id_base + static_cast<int64_t>(i))];
  }
  uint64_t total = 0;
  for (size_t s = 0; s < (*service)->num_shards(); ++s) {
    const auto version = (*service)->shard_registry(s)->active();
    ASSERT_NE(version, nullptr);
    ASSERT_NE(version->monitor(), nullptr);
    const obs::WindowAggregates window = version->monitor()->GlobalWindow();
    EXPECT_EQ(window.rows, expected[s]) << "shard " << s;
    EXPECT_EQ(window.seen, expected[s]) << "shard " << s;
    total += window.rows;
  }
  EXPECT_EQ(total, traffic.NumRows());
}

TEST(ServiceHealthTest, MergedEvaluationMatchesASingleMonitor) {
  // The snapshot-merge contract: with windows sized past the traffic, the
  // merged fleet verdict must equal what one monitor observing the whole
  // stream reports — same rows, same signal values, same states.
  core::GbdtLrModel model = TrainModel(core::Method::kLightMirm, 5);
  obs::MonitorOptions monitor_options;
  monitor_options.window = 8192;
  auto single = obs::ModelHealthMonitor::Create(model.score_reference(),
                                                monitor_options);
  ASSERT_TRUE(single.ok());
  const data::Dataset traffic = GenSet(400, 12);
  const std::vector<double> scores =
      *model.scoring_session()->Score(traffic.features(), &traffic.envs());
  ASSERT_TRUE((*single)
                  ->ObserveBatch(scores, &traffic.envs(), &traffic.labels())
                  .ok());

  ServiceOptions options;
  options.dispatcher.num_shards = 3;
  options.dispatcher.feature_width = traffic.NumFeatures();
  options.monitor = monitor_options;
  auto service = ShardedScoringService::Create(std::move(model), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE((*service)
                  ->Score(DatasetRequest(traffic, 31000,
                                         /*with_labels=*/true))
                  .ok());
  (*service)->Flush();

  const auto merged = (*service)->EvaluateHealth();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  const obs::HealthSnapshot expect = (*single)->Evaluate();

  const auto expect_windows_match = [](const obs::WindowHealth& a,
                                       const obs::WindowHealth& b) {
    EXPECT_EQ(a.seen, b.seen);
    EXPECT_EQ(a.window_rows, b.window_rows);
    EXPECT_EQ(a.labeled_rows, b.labeled_rows);
    EXPECT_EQ(a.default_rate, b.default_rate);
    EXPECT_EQ(a.auc, b.auc);
    EXPECT_EQ(a.ks, b.ks);
    EXPECT_EQ(a.psi.value, b.psi.value);
    EXPECT_EQ(a.psi.state, b.psi.state);
    EXPECT_EQ(a.drift_ks.value, b.drift_ks.value);
    EXPECT_EQ(a.auc_drop.value, b.auc_drop.value);
    EXPECT_EQ(a.ks_drop.value, b.ks_drop.value);
    EXPECT_EQ(a.default_rate_rise.value, b.default_rate_rise.value);
    // Calibration sums labeled scores per bin; shard-merge adds them in a
    // different order than the single window, so allow float-association
    // noise (everything above is integer-derived and exact).
    EXPECT_NEAR(a.calibration.value, b.calibration.value, 1e-12);
    EXPECT_EQ(a.calibration.state, b.calibration.state);
    EXPECT_EQ(a.overall, b.overall);
  };
  EXPECT_EQ(merged->evaluation, expect.evaluation);
  expect_windows_match(merged->global, expect.global);
  ASSERT_EQ(merged->per_env.size(), expect.per_env.size());
  for (const auto& [env, health] : expect.per_env) {
    ASSERT_EQ(merged->per_env.count(env), 1u) << "env " << env;
    expect_windows_match(merged->per_env.at(env), health);
  }
  EXPECT_EQ(merged->fairness_gap.value, expect.fairness_gap.value);
  EXPECT_EQ(merged->fairness_gap.state, expect.fairness_gap.state);
  EXPECT_EQ(merged->fairness_envs, expect.fairness_envs);
  EXPECT_EQ(merged->overall, expect.overall);
}

TEST(ServiceDeployTest, DeploySwapsEveryShardAndEvictReclaimsTheOld) {
  core::GbdtLrModel champion = TrainModel(core::Method::kErm, 1);
  core::GbdtLrModel challenger = TrainModel(core::Method::kLightMirm, 2);
  const data::Dataset batch = GenSet(100, 13);
  const std::vector<double> champion_scores =
      *champion.scoring_session()->Score(batch.features(), &batch.envs());
  const std::vector<double> challenger_scores =
      *challenger.scoring_session()->Score(batch.features(), &batch.envs());
  ASSERT_NE(champion_scores, challenger_scores);

  ServiceOptions options;
  options.dispatcher.num_shards = 4;
  options.dispatcher.feature_width = batch.NumFeatures();
  auto service = ShardedScoringService::Create(std::move(champion), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto response =
      (*service)->Score(DatasetRequest(batch, 1000, /*with_labels=*/false));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->scores, champion_scores);

  ASSERT_TRUE((*service)->Deploy("v2", std::move(challenger)).ok());
  response =
      (*service)->Score(DatasetRequest(batch, 1000, /*with_labels=*/false));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->scores, challenger_scores);
  for (size_t s = 0; s < (*service)->num_shards(); ++s) {
    EXPECT_EQ((*service)->shard_registry(s)->active()->id(), "v2");
    EXPECT_EQ((*service)->shard_registry(s)->size(), 2u);
  }
  // The retired champion is unreferenced once the traffic drained: one
  // eviction per shard.
  EXPECT_EQ((*service)->EvictRetired(), (*service)->num_shards());
  for (size_t s = 0; s < (*service)->num_shards(); ++s) {
    EXPECT_EQ((*service)->shard_registry(s)->VersionIds(),
              (std::vector<std::string>{"v2"}));
  }
}

// Submitters, a rolling deploy, health ticks, and eviction sweeps all at
// once — the service's full concurrency surface. TSan (CI job `tsan`)
// checks the synchronization; the assertions check nothing is lost.
TEST(ServiceConcurrencyTest, ParallelSubmitsDeployAndHealthTicks) {
  core::GbdtLrModel model = TrainModel(core::Method::kErm, 7);
  core::GbdtLrModel next = TrainModel(core::Method::kLightMirm, 8);
  const data::Dataset rows = GenSet(100, 14);  // 200 rows to draw from

  ServiceOptions options;
  options.dispatcher.num_shards = 4;
  options.dispatcher.feature_width = rows.NumFeatures();
  auto service = ShardedScoringService::Create(std::move(model), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 25;
  constexpr size_t kRowsPerRequest = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int r = 0; r < kRequestsPerThread; ++r) {
        ScoreRequest request;
        const size_t base_row =
            (static_cast<size_t>(r) * kRowsPerRequest) % rows.NumRows();
        for (size_t i = 0; i < kRowsPerRequest; ++i) {
          const size_t row = (base_row + i) % rows.NumRows();
          request.loan_ids.push_back(t * 100000 + r * 100 +
                                     static_cast<int64_t>(i));
          const double* features = rows.features().Row(row);
          request.features.insert(request.features.end(), features,
                                  features + rows.NumFeatures());
          request.envs.push_back(rows.envs()[row]);
          request.labels.push_back(rows.labels()[row]);
        }
        const auto response = (*service)->Score(std::move(request));
        if (!response.ok() ||
            response->scores.size() != kRowsPerRequest) {
          failures.fetch_add(1);
        }
      }
    });
  }
  std::thread controller([&] {
    for (int i = 0; i < 20; ++i) {
      if (i == 10) {
        EXPECT_TRUE((*service)->Deploy("v2", std::move(next)).ok());
      }
      EXPECT_TRUE((*service)->EvaluateHealth().ok());
      (*service)->EvictRetired();
      std::this_thread::yield();
    }
  });
  for (auto& t : submitters) t.join();
  controller.join();
  (*service)->Flush();

  EXPECT_EQ(failures.load(), 0);
  const DispatcherStats stats = (*service)->dispatcher_stats();
  EXPECT_EQ(stats.requests, uint64_t{kThreads} * kRequestsPerThread);
  EXPECT_EQ(stats.rows,
            uint64_t{kThreads} * kRequestsPerThread * kRowsPerRequest);
  EXPECT_EQ(stats.shed_requests, 0u);
  EXPECT_TRUE((*service)->EvaluateHealth().ok());
}

}  // namespace
}  // namespace lightmirm::serve
