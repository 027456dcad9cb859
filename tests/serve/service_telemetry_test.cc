// Request-lifecycle tracing for the sharded scoring service: the flight
// recorder ring, the slowest-K exemplar store, and the ServiceTelemetry
// hub wired through BatchDispatcher + ShardedScoringService. The
// concurrency tests (FlightRecorder, the service lifecycle) run under
// TSan and ASan in CI (jobs `tsan` / `asan`).
#include "serve/service/telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/gbdt_lr_model.h"
#include "data/loan_generator.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "serve/service/exemplar.h"
#include "serve/service/flight_recorder.h"
#include "serve/service/sharded_service.h"

namespace lightmirm::serve {
namespace {

// --- FlightRecorder ------------------------------------------------------

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(0).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(8).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(9).capacity(), 16u);
  EXPECT_EQ(FlightRecorder(1000).capacity(), 1024u);
}

TEST(FlightRecorderTest, KeepsTheMostRecentEventsAfterWrap) {
  FlightRecorder recorder(8);
  for (uint64_t i = 1; i <= 20; ++i) {
    recorder.Record(ServiceEventType::kSubmit, 0, i, 100 + i);
  }
  EXPECT_EQ(recorder.recorded(), 20u);
  const std::vector<ServiceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 8u);
  // Oldest-first, gapless, and exactly the last `capacity` records.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 13 + i);
    EXPECT_EQ(events[i].a, 13 + i);
    EXPECT_EQ(events[i].b, 113 + i);
  }
}

TEST(FlightRecorderTest, DumpNamesEventsAndShards) {
  FlightRecorder recorder(8);
  recorder.Record(ServiceEventType::kSubmit, kFleetWide, 5, 1);
  recorder.Record(ServiceEventType::kFlush, 2, 5, 0);
  recorder.Record(ServiceEventType::kAlert, kFleetWide, 2, 1);
  const std::string dump = recorder.Dump();
  EXPECT_NE(dump.find("flight recorder: 3 events"), std::string::npos);
  EXPECT_NE(dump.find("submit"), std::string::npos);
  EXPECT_NE(dump.find("flush"), std::string::npos);
  EXPECT_NE(dump.find("alert"), std::string::npos);
  EXPECT_NE(dump.find("shard=fleet"), std::string::npos);
  EXPECT_NE(dump.find("shard=2"), std::string::npos);
}

TEST(FlightRecorderTest, EmptyRecorderDumpsHeaderOnly) {
  FlightRecorder recorder(8);
  EXPECT_TRUE(recorder.Snapshot().empty());
  EXPECT_NE(recorder.Dump().find("flight recorder: 0 events"),
            std::string::npos);
}

TEST(FlightRecorderTest, ConcurrentRecordAndSnapshotNeverTearsAnEvent) {
  // Writers stamp every field of an event with their own identity (shard =
  // writer, a = writer * 1M + i, b = a); a reader snapshots continuously
  // through the overwrites. A torn slot — fields from two different
  // writes — would mix identities. TSan (CI job `tsan`) additionally
  // checks the seqlock ordering.
  FlightRecorder recorder(16);  // small ring => constant overwrites
  constexpr int kWriters = 4;
  constexpr int kEventsPerWriter = 5000;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const ServiceEvent& e : recorder.Snapshot()) {
        if (e.b != e.a || e.a / 1'000'000 != e.shard) torn.fetch_add(1);
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, w] {
      for (int i = 0; i < kEventsPerWriter; ++i) {
        const uint64_t a = static_cast<uint64_t>(w) * 1'000'000 + i;
        recorder.Record(ServiceEventType::kBatchScored,
                        static_cast<uint32_t>(w), a, a);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(recorder.recorded(),
            static_cast<uint64_t>(kWriters) * kEventsPerWriter);
  const std::vector<ServiceEvent> events = recorder.Snapshot();
  ASSERT_LE(events.size(), recorder.capacity());
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  for (const ServiceEvent& e : events) {
    EXPECT_EQ(e.type, ServiceEventType::kBatchScored);
    EXPECT_LT(e.shard, static_cast<uint32_t>(kWriters));
    EXPECT_EQ(e.a / 1'000'000, e.shard);
    EXPECT_EQ(e.b, e.a);
  }
}

// --- ExemplarStore -------------------------------------------------------

RequestExemplar MakeExemplar(uint64_t id, uint64_t total_ns) {
  RequestExemplar e;
  e.request_id = id;
  e.rows = 1;
  e.admit_ns = 1000;
  e.complete_ns = 1000 + total_ns;
  return e;
}

TEST(ExemplarStoreTest, KeepsExactlyTheSlowestK) {
  ExemplarStore store(4);
  // Offer 1..20ms in shuffled order; only 17..20 must survive.
  const std::vector<uint64_t> order = {3,  17, 1, 20, 9,  12, 5, 18, 2, 11,
                                       19, 4,  8, 13, 16, 6,  7, 10, 14, 15};
  for (const uint64_t ms : order) {
    store.Offer(MakeExemplar(ms, ms * 1'000'000));
  }
  const std::vector<RequestExemplar> slowest = store.Slowest();
  ASSERT_EQ(slowest.size(), 4u);
  EXPECT_EQ(slowest[0].request_id, 20u);  // slowest first
  EXPECT_EQ(slowest[1].request_id, 19u);
  EXPECT_EQ(slowest[2].request_id, 18u);
  EXPECT_EQ(slowest[3].request_id, 17u);
}

TEST(ExemplarStoreTest, FullStoreRejectsFasterOffers) {
  ExemplarStore store(2);
  store.Offer(MakeExemplar(1, 10'000'000));
  store.Offer(MakeExemplar(2, 20'000'000));
  store.Offer(MakeExemplar(3, 5'000'000));  // faster than the floor
  const std::vector<RequestExemplar> slowest = store.Slowest();
  ASSERT_EQ(slowest.size(), 2u);
  EXPECT_EQ(slowest[0].request_id, 2u);
  EXPECT_EQ(slowest[1].request_id, 1u);
}

TEST(ExemplarStoreTest, BreakdownTakesTheStragglerView) {
  RequestExemplar e;
  e.request_id = 7;
  e.rows = 10;
  e.admit_ns = 1'000;
  e.complete_ns = 101'000;  // 100µs total
  ShardStageStamps fast;
  fast.shard = 0;
  fast.enqueue_ns = 2'000;
  fast.flush_ns = 10'000;       // 8µs queue wait
  fast.score_start_ns = 11'000; // 1µs batch form
  fast.score_end_ns = 31'000;   // 20µs scoring
  fast.convert_ns = 4'000;
  fast.kernel_ns = 15'000;
  fast.monitor_ns = 1'000;
  ShardStageStamps slow = fast;
  slow.shard = 1;
  slow.flush_ns = 52'000;       // 50µs queue wait (the straggler)
  slow.score_start_ns = 54'000; // 2µs batch form
  slow.score_end_ns = 64'000;   // 10µs scoring
  slow.kernel_ns = 7'000;
  e.shards = {fast, slow};

  const StageBreakdown b = e.Breakdown();
  EXPECT_DOUBLE_EQ(b.total_s, 100e-6);
  EXPECT_DOUBLE_EQ(b.queue_wait_s, 50e-6);   // max over shards
  EXPECT_DOUBLE_EQ(b.batch_form_s, 2e-6);
  EXPECT_DOUBLE_EQ(b.scoring_s, 20e-6);      // shard 0 was slower here
  EXPECT_DOUBLE_EQ(b.convert_s, 4e-6);
  EXPECT_DOUBLE_EQ(b.kernel_s, 15e-6);
  EXPECT_DOUBLE_EQ(b.monitor_feed_s, 1e-6);
}

TEST(ExemplarStoreTest, JsonAndTraceExportsCoverEveryShardStage) {
  RequestExemplar e = MakeExemplar(42, 90'000);
  ShardStageStamps stamps;
  stamps.shard = 3;
  stamps.batch_rows = 5;
  stamps.enqueue_ns = 2'000;
  stamps.flush_ns = 20'000;
  stamps.score_start_ns = 25'000;
  stamps.score_end_ns = 80'000;
  e.shards = {stamps};

  const std::string json = ExportExemplarsJson({e});
  EXPECT_NE(json.find("\"request_id\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait_s\""), std::string::npos);
  EXPECT_NE(json.find("\"shard\": 3"), std::string::npos);
  EXPECT_EQ(ExportExemplarsJson({}), "[]");

  const std::vector<obs::TraceEvent> events = ExemplarTraceEvents({e});
  // One request-level span + queue_wait / batch_form / score per shard.
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "service.request.42");
  EXPECT_EQ(events[0].tid, 0);
  EXPECT_EQ(events[1].name, "service.request.42.queue_wait");
  EXPECT_EQ(events[1].tid, 4);  // shard + 1
  EXPECT_EQ(events[2].name, "service.request.42.batch_form");
  EXPECT_EQ(events[3].name, "service.request.42.score");
  // Timestamps are relative to the earliest admission.
  EXPECT_DOUBLE_EQ(events[0].ts_us, 0.0);
  EXPECT_DOUBLE_EQ(events[0].dur_us, 90.0);
  EXPECT_DOUBLE_EQ(events[1].ts_us, 1.0);   // enqueue 2µs - admit 1µs
  EXPECT_DOUBLE_EQ(events[1].dur_us, 18.0); // flush - enqueue
}

// --- ServiceTelemetry through the live service ---------------------------

data::Dataset GenSet(int rows_per_year, uint64_t seed) {
  data::LoanGeneratorOptions gen;
  gen.rows_per_year = rows_per_year;
  gen.last_year = 2017;
  gen.seed = seed;
  return *data::LoanGenerator(gen).Generate();
}

core::GbdtLrModel TrainModel(uint64_t seed) {
  core::GbdtLrOptions options;
  options.booster.num_trees = 12;
  options.booster.tree.max_leaves = 6;
  options.trainer.epochs = 10;
  options.min_env_rows = 30;
  auto model =
      core::GbdtLrModel::Train(GenSet(800, seed), core::Method::kErm, options);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).value();
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

TEST(ServiceTelemetryTest, LifecycleMetricsPopulateThroughRealTraffic) {
  core::GbdtLrModel model = TrainModel(21);
  const data::Dataset traffic = GenSet(150, 22);
  obs::MetricsRegistry registry;
  ServiceOptions options;
  options.telemetry_registry = &registry;
  options.dispatcher.num_shards = 3;
  options.dispatcher.feature_width = traffic.NumFeatures();
  auto service = ShardedScoringService::Create(std::move(model), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  ASSERT_TRUE(
      (*service)
          ->Score(DatasetRequest(traffic, 40'000, /*with_labels=*/true))
          .ok());
  (*service)->Flush();

  EXPECT_EQ(registry.GetCounter("service.requests")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("service.rows")->Value(), traffic.NumRows());
  EXPECT_EQ(registry.GetHistogram("service.stage.admission.seconds")->Count(),
            1u);
  EXPECT_EQ(registry.GetHistogram("service.request.seconds")->Count(), 1u);

  // Every flushed shard batch shows up in the per-shard labeled cells and
  // the aggregate stage histograms — and the counts agree.
  uint64_t flushes = 0;
  uint64_t batch_rows = 0;
  uint64_t shard_score_stages = 0;
  for (size_t s = 0; s < 3; ++s) {
    const obs::MetricLabels shard{{"shard", std::to_string(s)}};
    for (const char* reason : {"idle", "explicit"}) {
      flushes += registry
                     .GetCounter("service.flushes", {{"shard",
                                                      std::to_string(s)},
                                                     {"reason", reason}})
                     ->Value();
    }
    batch_rows += static_cast<uint64_t>(
        registry.GetHistogram("service.batch.rows", shard)->Sum());
    shard_score_stages +=
        registry.GetHistogram("service.stage.score.seconds", shard)->Count();
    EXPECT_DOUBLE_EQ(
        registry.GetGauge("service.shard.queue_rows", shard)->Value(), 0.0);
  }
  EXPECT_GE(flushes, 3u);  // every shard flushed at least once
  EXPECT_EQ(batch_rows, traffic.NumRows());
  EXPECT_EQ(registry.GetHistogram("service.stage.score.seconds")->Count(),
            flushes);
  EXPECT_EQ(registry.GetHistogram("service.stage.batch_form.seconds")->Count(),
            flushes);
  EXPECT_EQ(registry.GetHistogram("service.stage.queue_wait.seconds")->Count(),
            flushes);
  EXPECT_EQ(shard_score_stages, flushes);
  // Scoring did real work, so the kernel histogram carries real time.
  EXPECT_GT(registry.GetHistogram("service.stage.kernel.seconds")->Sum(), 0.0);
  EXPECT_GT(
      registry.GetHistogram("service.stage.monitor_feed.seconds")->Count(),
      0u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("service.pending_rows")->Value(), 0.0);

  // The labeled families render in both exporters.
  const std::string prom = obs::ExportPrometheus(registry);
  EXPECT_NE(prom.find("lightmirm_service_shard_queue_rows{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(prom.find(
                "lightmirm_service_flushes{reason=\"idle\",shard=\"0\"}"),
            std::string::npos);
  const std::string json = obs::ExportJson(registry);
  EXPECT_NE(json.find("service.shard.queue_rows{shard=\\\"1\\\"}"),
            std::string::npos);
}

TEST(ServiceTelemetryTest, ExemplarStampsAreMonotonicThroughTheLifecycle) {
  core::GbdtLrModel model = TrainModel(23);
  const data::Dataset traffic = GenSet(100, 24);
  obs::MetricsRegistry registry;
  ServiceOptions options;
  options.telemetry_registry = &registry;
  options.slowest_k = 8;
  options.dispatcher.num_shards = 4;
  options.dispatcher.feature_width = traffic.NumFeatures();
  auto service = ShardedScoringService::Create(std::move(model), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  for (int r = 0; r < 5; ++r) {
    ASSERT_TRUE((*service)
                    ->Score(DatasetRequest(traffic, 1000 * r,
                                           /*with_labels=*/false))
                    .ok());
  }
  (*service)->Flush();

  const std::vector<RequestExemplar> slowest = (*service)->SlowestRequests();
  ASSERT_FALSE(slowest.empty());
  ASSERT_LE(slowest.size(), 5u);
  for (const RequestExemplar& e : slowest) {
    EXPECT_GE(e.request_id, 1u);
    EXPECT_LE(e.request_id, 5u);
    EXPECT_EQ(e.rows, traffic.NumRows());
    ASSERT_FALSE(e.shards.empty());
    for (const ShardStageStamps& s : e.shards) {
      // admission <= enqueue <= flush <= score start <= score end <=
      // completion: the stamps honor the lifecycle even though they were
      // taken on three different threads.
      EXPECT_LE(e.admit_ns, s.enqueue_ns);
      EXPECT_LE(s.enqueue_ns, s.flush_ns);
      EXPECT_LE(s.flush_ns, s.score_start_ns);
      EXPECT_LE(s.score_start_ns, s.score_end_ns);
      EXPECT_LE(s.score_end_ns, e.complete_ns);
      EXPECT_GT(s.batch_rows, 0u);
    }
    // Busy durations fit inside the scoring wall time (service batches
    // score inline on one pool worker).
    const StageBreakdown b = e.Breakdown();
    EXPECT_LE(b.kernel_s, b.scoring_s + 1e-9);
    EXPECT_LE(b.total_s,
              static_cast<double>(e.complete_ns - e.admit_ns) * 1e-9 + 1e-12);
  }
  // Exemplar trace events reconstruct into a valid Chrome trace.
  const std::vector<obs::TraceEvent> events = ExemplarTraceEvents(slowest);
  EXPECT_GE(events.size(), slowest.size());
}

TEST(ServiceTelemetryTest, ScoresAreBitIdenticalWithTelemetryOnAndOff) {
  core::GbdtLrModel model = TrainModel(25);
  const data::Dataset batch = GenSet(120, 26);
  const std::vector<double> direct =
      *model.scoring_session()->Score(batch.features(), &batch.envs());

  const auto serve_once = [&](core::GbdtLrModel m) {
    obs::MetricsRegistry registry;
    ServiceOptions options;
    options.telemetry_registry = &registry;
    options.dispatcher.num_shards = 4;
    options.dispatcher.feature_width = batch.NumFeatures();
    auto service = ShardedScoringService::Create(std::move(m), options);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    auto response =
        (*service)->Score(DatasetRequest(batch, 7000, /*with_labels=*/false));
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response->scores;
  };

  // Training is deterministic (integration/determinism_test.cc), so the
  // same seed reproduces a bit-identical model for the second leg.
  EXPECT_EQ(serve_once(std::move(model)), direct);
  obs::SetTelemetryEnabled(false);
  EXPECT_EQ(serve_once(TrainModel(25)), direct);
  obs::SetTelemetryEnabled(true);
}

TEST(ServiceTelemetryTest, TelemetryDisabledTracksNothing) {
  core::GbdtLrModel model = TrainModel(27);
  const data::Dataset batch = GenSet(80, 28);
  obs::MetricsRegistry registry;
  ServiceOptions options;
  options.telemetry_registry = &registry;
  options.dispatcher.num_shards = 2;
  options.dispatcher.feature_width = batch.NumFeatures();
  auto service = ShardedScoringService::Create(std::move(model), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  // The shards score through a session built while telemetry was on; the
  // switch must reach it too, so the global `serve.*` metrics stay put.
  const auto serve_counts = [] {
    obs::MetricsRegistry* global = obs::MetricsRegistry::Global();
    return std::vector<uint64_t>{
        global->GetCounter("serve.batches")->Value(),
        global->GetCounter("serve.rows_scored")->Value(),
        global->GetCounter("serve.env_override.hits")->Value(),
        global->GetCounter("serve.env_override.misses")->Value(),
        global->GetHistogram("serve.batch.seconds")->Count()};
  };
  const std::vector<uint64_t> serve_before = serve_counts();
  obs::SetTelemetryEnabled(false);
  ASSERT_TRUE(
      (*service)
          ->Score(DatasetRequest(batch, 9000, /*with_labels=*/false))
          .ok());
  (*service)->Flush();
  obs::SetTelemetryEnabled(true);
  EXPECT_EQ(registry.GetCounter("service.requests")->Value(), 0u);
  EXPECT_EQ(registry.GetHistogram("service.request.seconds")->Count(), 0u);
  EXPECT_TRUE((*service)->SlowestRequests().empty());
  EXPECT_EQ((*service)->flight_recorder()->recorded(), 0u);
  EXPECT_EQ(serve_counts(), serve_before);
}

// Lifecycle counts are a pure function of the request stream: the same
// synchronous single-row traffic produces identical stage / request /
// flush counts at any scoring-pool width. Each Score call waits for its
// own completion, so every request is flushed alone.
TEST(ServiceTelemetryTest, StageCountsAreDeterministicAcrossThreadCounts) {
  constexpr int kRequests = 24;
  const size_t width =
      TrainModel(29).scoring_session()->forest().min_feature_count();

  struct Counts {
    uint64_t requests, score_stages, request_hist, flushes;
    bool operator==(const Counts&) const = default;
  };
  const auto run = [&](int score_threads) {
    obs::MetricsRegistry registry;
    ServiceOptions options;
    options.telemetry_registry = &registry;
    options.dispatcher.num_shards = 2;
    options.dispatcher.feature_width = width;
    options.dispatcher.score_threads = score_threads;
    auto service = ShardedScoringService::Create(TrainModel(29), options);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    for (int i = 0; i < kRequests; ++i) {
      ScoreRequest request;
      request.loan_ids = {static_cast<int64_t>(7919 * i)};
      request.features.assign(width, 0.25 * i);
      EXPECT_TRUE((*service)->Score(std::move(request)).ok());
    }
    (*service)->Flush();
    uint64_t flushes = 0;
    for (size_t s = 0; s < 2; ++s) {
      for (const char* reason : {"idle", "explicit"}) {
        flushes += registry
                       .GetCounter("service.flushes",
                                   {{"shard", std::to_string(s)},
                                    {"reason", reason}})
                       ->Value();
      }
    }
    return Counts{
        registry.GetCounter("service.requests")->Value(),
        registry.GetHistogram("service.stage.score.seconds")->Count(),
        registry.GetHistogram("service.request.seconds")->Count(),
        flushes};
  };

  // Single-row flushes: one scored batch per request, exactly, at every
  // pool width.
  const Counts base = run(1);
  EXPECT_EQ(base.requests, kRequests);
  EXPECT_EQ(base.score_stages, kRequests);
  EXPECT_EQ(base.request_hist, kRequests);
  EXPECT_EQ(base.flushes, kRequests);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(8), base);
}

TEST(ServiceTelemetryTest, ShedNamesTheShardAndCapAndCounts) {
  // Park the scorer so the shard accumulator refills while a flush cycle
  // is in flight, then overflow it (the dispatcher-level shed test, with
  // the telemetry sink attached).
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool entered = false;
    bool release = false;
  };
  auto gate = std::make_shared<Gate>();
  obs::MetricsRegistry registry;
  ServiceTelemetryOptions telemetry_options;
  telemetry_options.num_shards = 1;
  telemetry_options.registry = &registry;
  ServiceTelemetry telemetry(telemetry_options);

  DispatcherOptions options;
  options.num_shards = 1;
  options.feature_width = 1;
  options.max_pending_rows = 8;
  options.telemetry = &telemetry;
  auto dispatcher = BatchDispatcher::Create(
      options, [gate](size_t, ShardBatch& batch, std::vector<double>* scores) {
        std::unique_lock<std::mutex> lock(gate->mu);
        gate->entered = true;
        gate->cv.notify_all();
        gate->cv.wait(lock, [&] { return gate->release; });
        scores->assign(batch.rows, 1.0);
        return Status::OK();
      });
  ASSERT_TRUE(dispatcher.ok());

  std::atomic<int> completed{0};
  const auto submit_rows = [&](size_t rows) {
    ScoreRequest request;
    for (size_t i = 0; i < rows; ++i) {
      request.loan_ids.push_back(static_cast<int64_t>(i));
      request.features.push_back(0.0);
    }
    return (*dispatcher)
        ->Submit(std::move(request),
                 [&completed](Result<ScoreResponse> response) {
                   EXPECT_TRUE(response.ok());
                   completed.fetch_add(1);
                 });
  };
  ASSERT_TRUE(submit_rows(8).ok());
  {
    std::unique_lock<std::mutex> lock(gate->mu);
    gate->cv.wait(lock, [&] { return gate->entered; });
  }
  ASSERT_TRUE(submit_rows(8).ok());
  const Status shed = submit_rows(3);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  // The message carries everything an operator needs to size the cap.
  EXPECT_NE(shed.message().find("shard 0"), std::string::npos)
      << shed.message();
  EXPECT_NE(shed.message().find("max_pending_rows=8"), std::string::npos)
      << shed.message();
  EXPECT_NE(shed.message().find("+3 requested"), std::string::npos)
      << shed.message();

  {
    std::lock_guard<std::mutex> lock(gate->mu);
    gate->release = true;
  }
  gate->cv.notify_all();
  (*dispatcher)->Flush();
  EXPECT_EQ(completed.load(), 2);

  EXPECT_EQ(
      registry.GetCounter("service.shed.requests", {{"shard", "0"}})->Value(),
      1u);
  bool saw_shed_event = false;
  for (const ServiceEvent& e : telemetry.flight_recorder()->Snapshot()) {
    if (e.type == ServiceEventType::kShed) {
      saw_shed_event = true;
      EXPECT_EQ(e.shard, 0u);
      EXPECT_EQ(e.a, 3u);  // rows requested
      EXPECT_EQ(e.b, 8u);  // rows held
    }
  }
  EXPECT_TRUE(saw_shed_event);
}

TEST(ServiceTelemetryTest, AlertTransitionDumpsTheFlightRecorder) {
  core::GbdtLrModel model = TrainModel(31);
  const data::Dataset traffic = GenSet(200, 32);
  obs::MetricsRegistry registry;
  ServiceOptions options;
  options.telemetry_registry = &registry;
  options.dispatcher.num_shards = 2;
  options.dispatcher.feature_width = traffic.NumFeatures();
  // Hair-trigger PSI thresholds: any finite-window wobble against the
  // training reference escalates straight to ALERT on the first tick.
  options.monitor.psi = {1e-9, 5e-9, 0.2};
  options.monitor.min_rows = 50;
  std::atomic<int> alerts{0};
  std::string callback_dump;
  std::mutex dump_mu;
  options.on_alert_dump = [&](const obs::HealthSnapshot& snapshot,
                              const std::string& dump) {
    std::lock_guard<std::mutex> lock(dump_mu);
    alerts.fetch_add(1);
    callback_dump = dump;
    EXPECT_EQ(snapshot.overall, obs::AlertState::kAlert);
  };
  auto service = ShardedScoringService::Create(std::move(model), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  ASSERT_TRUE(
      (*service)
          ->Score(DatasetRequest(traffic, 60'000, /*with_labels=*/true))
          .ok());
  (*service)->Flush();
  EXPECT_TRUE((*service)->last_alert_dump().empty());

  const auto snapshot = (*service)->EvaluateHealth();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_EQ(snapshot->overall, obs::AlertState::kAlert);

  // The transition froze the ring: the dump holds the traffic that led up
  // to the alert — submits, per-shard flushes and scored batches — and
  // ends with the alert event itself.
  const std::string dump = (*service)->last_alert_dump();
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find("submit"), std::string::npos);
  EXPECT_NE(dump.find("flush"), std::string::npos);
  EXPECT_NE(dump.find("batch_scored"), std::string::npos);
  EXPECT_NE(dump.find("shard=0"), std::string::npos);
  EXPECT_NE(dump.find("shard=1"), std::string::npos);
  const size_t alert_pos = dump.find("alert");
  ASSERT_NE(alert_pos, std::string::npos);
  EXPECT_EQ(dump.find("alert", alert_pos + 1), std::string::npos);
  EXPECT_EQ(alerts.load(), 1);
  {
    std::lock_guard<std::mutex> lock(dump_mu);
    EXPECT_EQ(callback_dump, dump);
  }
  EXPECT_EQ(registry.GetCounter("service.alerts")->Value(), 1u);

  // Still-ALERT ticks do not re-dump; only a fresh transition would.
  ASSERT_TRUE((*service)->EvaluateHealth().ok());
  EXPECT_EQ(alerts.load(), 1);
  EXPECT_EQ(registry.GetCounter("service.alerts")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("service.health_evaluations")->Value(), 2u);

  // The tick also published the merged verdict and the per-shard window
  // gauges into the registry.
  EXPECT_DOUBLE_EQ(registry.GetGauge("monitor.fleet.state")->Value(), 2.0);
  double shard_rows = 0;
  for (size_t s = 0; s < 2; ++s) {
    shard_rows += registry
                      .GetGauge("monitor.shard.window_rows",
                                {{"shard", std::to_string(s)}})
                      ->Value();
  }
  EXPECT_DOUBLE_EQ(shard_rows, static_cast<double>(traffic.NumRows()));
}

TEST(ServiceTelemetryTest, DeploysAndHealthTicksReachTheRecorder) {
  core::GbdtLrModel model = TrainModel(33);
  core::GbdtLrModel next = TrainModel(34);
  obs::MetricsRegistry registry;
  ServiceOptions options;
  options.telemetry_registry = &registry;
  options.dispatcher.num_shards = 2;
  options.dispatcher.feature_width =
      model.scoring_session()->forest().min_feature_count();
  auto service = ShardedScoringService::Create(std::move(model), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  ASSERT_TRUE((*service)->Deploy("v2", std::move(next)).ok());
  ASSERT_TRUE((*service)->EvaluateHealth().ok());
  EXPECT_EQ(registry.GetCounter("service.deploys")->Value(), 1u);
  EXPECT_EQ(registry.GetCounter("service.health_evaluations")->Value(), 1u);
  bool saw_deploy = false, saw_health = false;
  for (const ServiceEvent& e : (*service)->flight_recorder()->Snapshot()) {
    saw_deploy |= e.type == ServiceEventType::kDeploy;
    saw_health |= e.type == ServiceEventType::kHealthEval;
  }
  EXPECT_TRUE(saw_deploy);
  EXPECT_TRUE(saw_health);
}

}  // namespace
}  // namespace lightmirm::serve
