#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "data/loan_generator.h"
#include "metrics/env_report.h"
#include "obs/monitor.h"
#include "pipeline.h"
#include "train/trainer.h"

namespace perfbench {

using namespace lightmirm;

namespace {

// ---- Workload shapes. Changing any of these changes the benchmark: bump
// kBenchmarkVersion with it.
constexpr int kServeSetups = 5;    ///< set-ups per interactive run
constexpr int kRetrainSetups = 9;  ///< input generations per retrain run
constexpr size_t kMinRetrainJobs = 5;  ///< jobs per run, however slow
constexpr double kLowRowsPerSec = 50000.0;
constexpr double kHighRowsPerSec = 300000.0;
/// Each retrain job's model then serves interactive's high phase this long.
constexpr double kFirstTrafficSeconds = 2.0;
constexpr double kHotShare = 0.4;  ///< rows drawn from the hot province
constexpr const char* kHotProvince = "Guangdong";
/// A run whose generator sent its p99 request later than this after it
/// was both due and built (time the generator was not itself busy in
/// Submit or building) measured the host, not the service: invalid.
constexpr double kMaxGeneratorStallMs = 2.0;
/// Latency quantiles are taken per window, then the median across windows
/// is reported. A window lasts at least kWindowNs and long enough to expect
/// kWindowRequests arrivals, so its p99 has about 20 samples past it.
constexpr int64_t kWindowNs = 250000000;
constexpr double kWindowRequests = 2000.0;
/// Traced runs keep request-level spans for one request in this many.
constexpr size_t kRequestSpanEvery = 16;
constexpr int kProbeRounds = 3;  ///< admin and score-reference probes

enum class Outcome : uint8_t { kPending, kOk, kError, kWrongLength, kRejected };

const char* OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kPending:
      return "never completed";
    case Outcome::kOk:
      return "ok";
    case Outcome::kError:
      return "error";
    case Outcome::kWrongLength:
      return "wrong-length response";
    case Outcome::kRejected:
      return "rejected at submit";
  }
  return "?";
}

/// One latency sample and the measurement window it falls in.
struct Sample {
  size_t window = 0;
  double ms = 0.0;
};

/// Window of an event `offset_ns` into a span of `span_ns` cut into
/// windows of `window_ns` (a partial last window joins the one before).
size_t WindowOf(int64_t offset_ns, int64_t span_ns, int64_t window_ns) {
  const int64_t windows = std::max<int64_t>(1, span_ns / window_ns);
  return static_cast<size_t>(
      std::clamp<int64_t>(offset_ns / window_ns, 0, windows - 1));
}

/// The q-quantile of each window's samples, median across windows: one
/// scheduling hiccup moves one window's tail, not the run's figure.
double WindowedQuantile(const std::vector<Sample>& samples, double q,
                        size_t* min_window_samples,
                        std::vector<double>* per_window_out = nullptr) {
  std::vector<std::vector<double>> windows;
  for (const Sample& s : samples) {
    if (s.window >= windows.size()) windows.resize(s.window + 1);
    windows[s.window].push_back(s.ms);
  }
  std::vector<double> per_window;
  *min_window_samples = samples.size();
  for (const std::vector<double>& w : windows) {
    if (w.empty()) continue;
    per_window.push_back(Quantile(w, q));
    *min_window_samples = std::min(*min_window_samples, w.size());
  }
  if (per_window_out != nullptr) *per_window_out = per_window;
  return Median(std::move(per_window));
}

/// Reports <prefix>p50_ms, p90_ms and p99_ms (per-window quantiles, median
/// across windows) with the sample count and the per-window p99s, and says
/// when a window's p99 has fewer than ten samples past it.
void ReportLatency(Report* report, const std::string& prefix,
                   const std::vector<Sample>& samples) {
  size_t min_window = 0;
  std::vector<double> windows;
  for (const auto& [q, name] : {std::pair{0.5, "p50_ms"}, {0.9, "p90_ms"},
                                {0.99, "p99_ms"}}) {
    report->EndToEnd(prefix + name,
                     WindowedQuantile(samples, q, &min_window, &windows), "ms",
                     samples.size());
  }
  std::string list = "[";
  for (size_t i = 0; i < windows.size(); ++i) {
    list += StrFormat("%s%.4f", i ? ", " : "", windows[i]);
  }
  report->Info(prefix + "p99_ms.per_window", list + "]");
  if (min_window < 1000) {
    std::printf("  note: a %sp99_ms window has %zu samples, fewer than 10 "
                "past p99\n",
                prefix.c_str(), min_window);
  }
}

/// Per-run training ledger: what TrainWithBooster's StepTimer recorded in
/// every training of the run.
struct StepTotals {
  std::vector<double> encode, fit, inner, meta_losses, backward;
  void Add(const StepTimer& timer) {
    encode.push_back(timer.TotalSeconds("transforming the format"));
    fit.push_back(timer.TotalSeconds(train::kStepEpoch));
    inner.push_back(timer.TotalSeconds(train::kStepInnerOptimization));
    meta_losses.push_back(timer.TotalSeconds(train::kStepMetaLosses));
    backward.push_back(timer.TotalSeconds(train::kStepBackward));
  }
};

// ---------------------------------------------------------------------
// The open loop (interactive, and each retrain job's first traffic).

struct Phase {
  const char* name;
  double rows_per_sec;
  int64_t start_ns = 0;  ///< from the window start
  int64_t ns = 0;
  int64_t window_ns = 0;  ///< latency windows the phase is cut into
};

struct Arrival {
  int64_t at_ns = 0;   ///< scheduled send, from the window start
  uint32_t first = 0;  ///< index into Schedule::rows
  uint32_t count = 0;
  uint32_t phase = 0;
};

struct Schedule {
  std::vector<Phase> phases;
  std::vector<Arrival> arrivals;
  std::vector<uint32_t> rows;
};

/// Poisson arrivals through consecutive `phases` (name, rows/s, length in
/// seconds); 1/8/64-row requests at 55/30/15%, kHotShare of the rows from
/// the hot province.
Result<Schedule> MakeSchedule(
    uint64_t seed,
    const std::vector<std::tuple<const char*, double, double>>& phases,
    const data::Dataset& set) {
  LIGHTMIRM_ASSIGN_OR_RETURN(const int hot,
                             data::LoanGenerator::ProvinceIndex(kHotProvince));
  std::vector<uint32_t> all_rows(set.NumRows()), hot_rows;
  for (size_t i = 0; i < set.NumRows(); ++i) {
    all_rows[i] = static_cast<uint32_t>(i);
    if (set.envs()[i] == hot) hot_rows.push_back(static_cast<uint32_t>(i));
  }
  if (hot_rows.empty()) {
    return Status::FailedPrecondition("no hot-province rows in 2020");
  }
  const std::vector<size_t> sizes = {1, 8, 64};
  const std::vector<double> weights = {0.55, 0.30, 0.15};
  double mean_rows = 0.0;
  for (size_t i = 0; i < sizes.size(); ++i) mean_rows += sizes[i] * weights[i];

  Schedule schedule;
  Rng rng = Rng(seed).Fork(0x1a7e);
  int64_t phase_start = 0;
  for (const auto& [name, rows_per_sec, seconds] : phases) {
    const double requests_per_sec = rows_per_sec / mean_rows;
    const Phase phase{
        name, rows_per_sec, phase_start, static_cast<int64_t>(seconds * 1e9),
        std::max(kWindowNs, static_cast<int64_t>(kWindowRequests /
                                                 requests_per_sec * 1e9))};
    const double end = static_cast<double>(phase.start_ns + phase.ns) * 1e-9;
    double t = static_cast<double>(phase.start_ns) * 1e-9;
    while (true) {
      t += -std::log(1.0 - rng.Uniform()) / requests_per_sec;
      if (t >= end) break;
      Arrival a;
      a.at_ns = static_cast<int64_t>(t * 1e9);
      a.first = static_cast<uint32_t>(schedule.rows.size());
      a.count = static_cast<uint32_t>(sizes[rng.Categorical(weights)]);
      a.phase = static_cast<uint32_t>(schedule.phases.size());
      for (uint32_t j = 0; j < a.count; ++j) {
        const std::vector<uint32_t>& pool =
            rng.Bernoulli(kHotShare) ? hot_rows : all_rows;
        schedule.rows.push_back(pool[rng.UniformInt(pool.size())]);
      }
      schedule.arrivals.push_back(a);
    }
    phase_start += phase.ns;
    schedule.phases.push_back(phase);
  }
  return schedule;
}

/// Per-request state of the open loop, written by the generator (send
/// side) and the completion callback (receive side); `completions` is the
/// release/acquire handoff the check reads the receive side through.
struct Slot {
  std::atomic<uint32_t> completions{0};
  Outcome outcome = Outcome::kPending;
  int64_t build_start_ns = 0;
  int64_t build_ns = 0;
  int64_t sent_ns = 0;
  int64_t submitted_ns = 0;
  int64_t done_ns = 0;
  uint64_t hash = 0;
};

struct OpenLoopRun {
  std::vector<Slot> slots;  ///< one per arrival
  int64_t start_ns = 0;     ///< the schedule's time zero
};

/// Sends `schedule` to `service` from this thread, the one generator. Each
/// request is built as soon as the previous one is sent, then held until
/// it is due, so building never delays a send on its own. Returns after
/// every accepted request has completed.
OpenLoopRun RunOpenLoop(serve::ShardedScoringService* service,
                        const data::Dataset& set, const Schedule& schedule) {
  const size_t n = schedule.arrivals.size();
  OpenLoopRun run{std::vector<Slot>(n), 0};
  auto build = [&](size_t i) {
    const Arrival& a = schedule.arrivals[i];
    const int64_t build_start = NowNs();
    serve::ScoreRequest request =
        BuildRequest(set, schedule.rows.data() + a.first, a.count,
                     static_cast<int64_t>(i + 1) * 64);
    run.slots[i].build_start_ns = build_start;
    run.slots[i].build_ns = NowNs() - build_start;
    return request;
  };
  serve::ScoreRequest next = build(0);
  SetStage("open-loop window");
  run.start_ns = NowNs() + 1000000;
  for (size_t i = 0; i < n; ++i) {
    const Arrival& a = schedule.arrivals[i];
    serve::ScoreRequest request = std::move(next);
    SleepUntilNs(run.start_ns + a.at_ns);
    Slot* slot = &run.slots[i];
    slot->sent_ns = NowNs();
    const uint32_t count = a.count;
    const Status submitted = service->Submit(
        std::move(request),
        [slot, count](Result<serve::ScoreResponse> response) {
          if (slot->completions.load(std::memory_order_relaxed) == 0) {
            slot->done_ns = NowNs();
            if (!response.ok()) {
              slot->outcome = Outcome::kError;
            } else if (response->scores.size() != count) {
              slot->outcome = Outcome::kWrongLength;
            } else {
              slot->outcome = Outcome::kOk;
              slot->hash = HashScores(response->scores.data(), count);
            }
          }
          slot->completions.fetch_add(1, std::memory_order_release);
        });
    slot->submitted_ns = NowNs();
    if (!submitted.ok()) slot->outcome = Outcome::kRejected;
    if (i + 1 < n) next = build(i + 1);
  }
  SetStage("flush");
  service->Flush();
  return run;
}

/// What the checks of one or more open-loop runs gathered, per phase.
struct OpenLoopTally {
  explicit OpenLoopTally(size_t phases)
      : latency(phases), lag(phases), stall(phases) {}
  std::vector<std::vector<Sample>> latency;  ///< from the scheduled send
  std::vector<std::vector<Sample>> lag;      ///< send minus schedule
  std::vector<std::vector<Sample>> stall;    ///< lag the generator's own
                                             ///< Submit and build leave
  std::vector<double> submit_us, build_us;
  size_t window_base = 0;  ///< windows used by earlier runs
  uint64_t request_base = 0;
};

/// Untimed checks of one open-loop run: exactly-once completion and bit
/// identity against `expected` (row-aligned with the dataset); every
/// non-OK response counts in `failed`. Adds its samples to `tally`, and
/// sampled request spans to a traced run.
void CheckOpenLoop(const Schedule& schedule, const OpenLoopRun& run,
                   const std::vector<double>& expected, OpenLoopTally* tally,
                   Report* report, SpanRecorder* spans) {
  std::vector<double> buffer;
  size_t reported = 0;
  size_t windows = 0;
  for (size_t i = 0; i < schedule.arrivals.size(); ++i) {
    const Arrival& a = schedule.arrivals[i];
    const Phase& phase = schedule.phases[a.phase];
    const Slot& slot = run.slots[i];
    const uint32_t completions =
        slot.completions.load(std::memory_order_acquire);
    const int64_t due = run.start_ns + a.at_ns;
    const int64_t ready = slot.build_start_ns + slot.build_ns;
    const size_t window =
        tally->window_base +
        WindowOf(a.at_ns - phase.start_ns, phase.ns, phase.window_ns);
    windows = std::max(windows, window + 1 - tally->window_base);
    tally->lag[a.phase].push_back({window, Millis(slot.sent_ns - due)});
    tally->stall[a.phase].push_back(
        {window, Millis(slot.sent_ns - std::max(due, ready))});
    tally->submit_us.push_back(Micros(slot.submitted_ns - slot.sent_ns));
    tally->build_us.push_back(Micros(slot.build_ns));
    ++report->attempted;
    const bool accepted = slot.outcome != Outcome::kRejected;
    if (accepted && completions != 1 && reported++ < 5) {
      report->Fail(StrFormat("request %zu completed %u times", i, completions));
    }
    if (slot.outcome != Outcome::kOk) {
      ++report->failed;
      if (reported++ < 5) {
        std::printf("  request %zu failed: %s\n", i, OutcomeName(slot.outcome));
      }
      continue;
    }
    buffer.resize(a.count);
    for (uint32_t j = 0; j < a.count; ++j) {
      buffer[j] = expected[schedule.rows[a.first + j]];
    }
    if (slot.hash != HashScores(buffer.data(), a.count) && reported++ < 5) {
      report->Fail(StrFormat(
          "request %zu: scores differ from GbdtLrModel::Predict", i));
    }
    tally->latency[a.phase].push_back({window, Millis(slot.done_ns - due)});
  }
  if (spans->enabled()) {
    for (size_t i = 0; i < run.slots.size(); i += kRequestSpanEvery) {
      const Slot& slot = run.slots[i];
      const uint64_t request = tally->request_base + i + 1;
      const uint64_t id = spans->NextId();
      const int64_t end = slot.done_ns != 0 ? slot.done_ns : slot.submitted_ns;
      spans->Add({"request", run.start_ns + schedule.arrivals[i].at_ns, end,
                  id, 0, request, 0});
      spans->Add({"client.build", slot.build_start_ns,
                  slot.build_start_ns + slot.build_ns, 0, id, request, 0});
      spans->Add({"service.submit", slot.sent_ns, slot.submitted_ns, 0, id,
                  request, 0});
    }
  }
  tally->window_base += windows;
  tally->request_base += run.slots.size();
}

/// Shed, errored or wrong-length responses over requests attempted; the
/// generator's lag and request-building time; and the run's validity.
void ReportGenerator(const Schedule& schedule, const OpenLoopTally& tally,
                     Report* report) {
  const uint64_t attempted = std::max<uint64_t>(1, report->attempted);
  report->EndToEnd("failed_frac",
                   static_cast<double>(report->failed) /
                       static_cast<double>(attempted),
                   "ratio", report->attempted);
  for (size_t p = 0; p < schedule.phases.size(); ++p) {
    const std::string phase = schedule.phases[p].name;
    size_t min_window = 0;
    report->EndToEnd(phase + ".generator_lag_p99_ms",
                     WindowedQuantile(tally.lag[p], 0.99, &min_window), "ms",
                     tally.lag[p].size());
    const std::string name = phase + ".generator_stall_p99_ms";
    const double stall = WindowedQuantile(tally.stall[p], 0.99, &min_window);
    report->EndToEnd(name, stall, "ms", tally.stall[p].size());
    if (!(stall <= kMaxGeneratorStallMs)) {
      report->Invalidate(StrFormat("%s is %.3f ms, above %.1f ms",
                                   name.c_str(), stall, kMaxGeneratorStallMs));
    }
  }
  report->EndToEnd("generator.build_ms.p50", Median(tally.build_us) * 1e-3,
                   "ms", tally.build_us.size());
}

// ---------------------------------------------------------------------
// The per-layer ledger (traced runs).

/// Runs `fn` repeatedly (a few warm-up calls, then until ~40 ms and at
/// least 20 timed calls) and returns the median call time in ns.
template <typename Fn>
double MedianCallNs(Fn&& fn) {
  for (int i = 0; i < 3; ++i) fn();
  std::vector<double> ns;
  const int64_t until = NowNs() + 40000000;
  while (ns.size() < 20 || (NowNs() < until && ns.size() < 200000)) {
    const int64_t start = NowNs();
    fn();
    ns.push_back(static_cast<double>(NowNs() - start));
  }
  return Median(std::move(ns));
}

/// ScoringSession::Score alone on the workload's own rows (`stream`), at
/// request and batch sizes from 1 to 2048 rows, plus the 512-row call
/// under one thread (no pool dispatch).
void ProbeSession(const serve::ScoringSession& session,
                  const data::Dataset& set, const std::vector<uint32_t>& stream,
                  Report* report) {
  const size_t width = set.NumFeatures();
  auto ns_per_row = [&](size_t n) {
    Matrix rows(n, width);
    std::vector<int> envs(n);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t row = stream[i % stream.size()];
      std::copy_n(set.features().Row(row), width, rows.Row(i));
      envs[i] = set.envs()[row];
    }
    std::vector<double> out;
    return MedianCallNs([&] { (void)session.Score(rows, &envs, &out); }) /
           static_cast<double>(n);
  };
  for (const size_t n : {1, 8, 64, 256, 512, 2048}) {
    report->Layer(StrFormat("session.ns_per_row.%zu", n), ns_per_row(n), "ns");
  }
  ScopedDefaultThreads one_thread(1);
  report->Layer("session.ns_per_row.512_1t", ns_per_row(512), "ns");
}

/// ModelHealthMonitor::ObserveBatch alone, on 256-row batches of the
/// workload's rows and reference scores, with and without labels.
Status ProbeMonitor(const obs::ScoreReference& reference,
                    const data::Dataset& set,
                    const std::vector<uint32_t>& stream,
                    const std::vector<double>& expected, Report* report) {
  constexpr size_t kBatch = 256;
  std::vector<double> scores(kBatch);
  std::vector<int> envs(kBatch), labels(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    const uint32_t row = stream[i % stream.size()];
    scores[i] = expected[row];
    envs[i] = set.envs()[row];
    labels[i] = set.labels()[row];
  }
  for (const bool labeled : {true, false}) {
    LIGHTMIRM_ASSIGN_OR_RETURN(std::unique_ptr<obs::ModelHealthMonitor> monitor,
                               obs::ModelHealthMonitor::Create(reference));
    const double ns = MedianCallNs([&] {
      (void)monitor->ObserveBatch(scores, &envs, labeled ? &labels : nullptr);
    });
    report->Layer(labeled ? "monitor.observe_ns_per_row.labeled"
                          : "monitor.observe_ns_per_row.unlabeled",
                  ns / kBatch, "ns");
  }
  return Status::OK();
}

/// Admin calls on the idle service after the window: health evaluation,
/// rolling deploy of an identical clone, eviction of the retired version.
Status ProbeAdmin(serve::ShardedScoringService* service,
                  const TrainedModel& trained, SpanRecorder* spans) {
  for (int i = 0; i < kProbeRounds; ++i) {
    {
      Span span(spans, "service.evaluate_health");
      LIGHTMIRM_RETURN_NOT_OK(service->EvaluateHealth().status());
    }
    LIGHTMIRM_ASSIGN_OR_RETURN(core::GbdtLrModel clone,
                               CloneModel(trained, spans));
    {
      Span span(spans, "service.deploy");
      LIGHTMIRM_RETURN_NOT_OK(
          service->Deploy(StrFormat("probe%d", i), std::move(clone)));
    }
    Span span(spans, "service.evict");
    service->EvictRetired();
  }
  return Status::OK();
}

void ReportServiceLayers(obs::MetricsRegistry* registry,
                         const serve::DispatcherStats& stats,
                         Report* report) {
  auto quantile_ms = [&](const char* histogram, double q,
                         const std::string& name) {
    const obs::Histogram* h = registry->GetHistogram(histogram);
    report->Layer(name, h->Quantile(q) * 1e3, "ms", h->Count());
  };
  quantile_ms("service.stage.queue_wait.seconds", 0.5,
              "dispatcher.queue_wait_ms.p50");
  quantile_ms("service.stage.queue_wait.seconds", 0.99,
              "dispatcher.queue_wait_ms.p99");
  quantile_ms("service.stage.batch_form.seconds", 0.99,
              "dispatcher.batch_form_ms.p99");
  quantile_ms("service.stage.score.seconds", 0.5,
              "service.stage.score_ms.p50");
  quantile_ms("service.stage.score.seconds", 0.99,
              "service.stage.score_ms.p99");
  quantile_ms("service.stage.monitor_feed.seconds", 0.99,
              "service.stage.monitor_feed_ms.p99");
  const uint64_t flushes =
      stats.size_flushes + stats.deadline_flushes + stats.explicit_flushes;
  const double denom = std::max<double>(1.0, static_cast<double>(flushes));
  report->Layer("dispatcher.deadline_flush_share",
                static_cast<double>(stats.deadline_flushes) / denom, "ratio",
                flushes);
  report->Layer("dispatcher.rows_per_flush",
                static_cast<double>(stats.rows) / denom, "rows", flushes);
  const double convert =
      registry->GetHistogram("service.stage.convert.seconds")->Sum();
  const double kernel =
      registry->GetHistogram("service.stage.kernel.seconds")->Sum();
  report->Layer("session.convert_share",
                convert + kernel > 0.0 ? convert / (convert + kernel) : 0.0,
                "ratio");
  std::printf("  dispatcher: %llu requests, %llu rows, flushes %llu size / "
              "%llu deadline / %llu explicit, %llu shed\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.rows),
              static_cast<unsigned long long>(stats.size_flushes),
              static_cast<unsigned long long>(stats.deadline_flushes),
              static_cast<unsigned long long>(stats.explicit_flushes),
              static_cast<unsigned long long>(stats.shed_requests));
}

void ReportSpanMedian(const SpanRecorder& spans, const std::string& span,
                      const std::string& metric, double scale,
                      const std::string& unit, Report* report) {
  const std::vector<double> ms = spans.DurationsMs(span);
  report->Layer(metric, Median(ms) * scale, unit, ms.size());
}

void ReportStep(const std::string& metric, const std::vector<double>& totals,
                Report* report) {
  report->Layer(metric, Median(totals), "s", totals.size());
}

/// Everything a traced run adds after its window. `service` and `trained`
/// are the last ones the run made; `stats` and `service_registry` cover
/// every service of the run.
Status ReportLedger(serve::ShardedScoringService* service,
                    obs::MetricsRegistry* service_registry,
                    const serve::DispatcherStats& stats,
                    const TrainedModel& trained, const Inputs& inputs,
                    const Schedule& schedule,
                    const std::vector<double>& expected,
                    const OpenLoopTally& tally, const StepTotals& steps,
                    SpanRecorder* spans, Report* report) {
  if (!spans->enabled()) return Status::OK();
  SetStage("per-layer ledger");
  ReportServiceLayers(service_registry, stats, report);
  report->Layer("service.submit_us.p50", Median(tally.submit_us), "us",
                tally.submit_us.size());
  report->Layer("service.submit_us.p99", Quantile(tally.submit_us, 0.99),
                "us", tally.submit_us.size());
  LIGHTMIRM_RETURN_NOT_OK(ProbeAdmin(service, trained, spans));
  ReportSpanMedian(*spans, "service.evaluate_health",
                   "service.evaluate_health_ms", 1.0, "ms", report);
  ReportSpanMedian(*spans, "service.deploy", "service.deploy_ms", 1.0, "ms",
                   report);
  ReportSpanMedian(*spans, "service.evict", "service.evict_ms", 1.0, "ms",
                   report);

  const std::vector<uint32_t> stream(
      schedule.rows.begin(),
      schedule.rows.begin() + std::min<size_t>(schedule.rows.size(), 4096));
  ProbeSession(*trained.model.scoring_session(), inputs.test, stream, report);
  LIGHTMIRM_RETURN_NOT_OK(ProbeMonitor(trained.model.score_reference(),
                                       inputs.test, stream, expected, report));

  for (int i = 0; i < kProbeRounds; ++i) {
    LIGHTMIRM_RETURN_NOT_OK(
        RebuildScoreReference(trained.model, inputs.train, spans));
  }
  for (const char* layer :
       {"data.generate", "gbdt.train", "core.compile", "core.score_reference"}) {
    ReportSpanMedian(*spans, layer, std::string(layer) + "_s", 1e-3, "s",
                     report);
  }
  ReportStep("gbdt.encode_s", steps.encode, report);
  ReportStep("train.fit_s", steps.fit, report);
  ReportStep("train.inner_s", steps.inner, report);
  ReportStep("train.meta_losses_s", steps.meta_losses, report);
  ReportStep("train.backward_s", steps.backward, report);
  return Status::OK();
}

/// Scores `set` with GbdtLrModel::Predict (the reference every response
/// must match bit for bit) and the paper's wKS / mKS of those scores.
Result<std::vector<double>> ReferenceScores(const TrainedModel& trained,
                                            const data::Dataset& set,
                                            double* wks, double* mks) {
  LIGHTMIRM_ASSIGN_OR_RETURN(std::vector<double> scores,
                             trained.model.Predict(set));
  LIGHTMIRM_ASSIGN_OR_RETURN(
      const metrics::EnvReport env,
      metrics::EvaluatePerEnv(set, scores, kEvalMinRows));
  *wks = env.worst_ks;
  *mks = env.mean_ks;
  return scores;
}

/// The serving stack of interactive.
struct ServeStack {
  Inputs inputs;
  std::unique_ptr<obs::MetricsRegistry> train_registry;
  TrainedModel trained;
  std::unique_ptr<obs::MetricsRegistry> service_registry;
  /// Declared last: stops before the registry its telemetry points into.
  std::unique_ptr<serve::ShardedScoringService> service;
};

/// Generates, trains and starts the service kServeSetups times (each a
/// full set-up from nothing), reporting the median set-up and training
/// times, and keeps the last stack.
Result<ServeStack> SetUpServing(const RunOptions& options, Report* report,
                                SpanRecorder* spans, StepTotals* steps) {
  std::optional<ServeStack> stack;
  std::vector<double> setup_s, train_s;
  for (int i = 0; i < kServeSetups; ++i) {
    SetStage("set-up: generate, train, start service");
    stack.reset();
    const int64_t start = NowNs();
    ServeStack s;
    LIGHTMIRM_ASSIGN_OR_RETURN(s.inputs, GenerateInputs(options.seed, spans));
    s.train_registry = std::make_unique<obs::MetricsRegistry>();
    const int64_t train_start = NowNs();
    LIGHTMIRM_ASSIGN_OR_RETURN(
        s.trained,
        TrainModel(s.inputs.train, s.train_registry.get(), spans));
    train_s.push_back(Seconds(NowNs() - train_start));
    LIGHTMIRM_ASSIGN_OR_RETURN(core::GbdtLrModel clone,
                               CloneModel(s.trained, spans));
    s.service_registry = std::make_unique<obs::MetricsRegistry>();
    LIGHTMIRM_ASSIGN_OR_RETURN(
        s.service, StartService(std::move(clone), s.inputs.test.NumFeatures(),
                                s.service_registry.get()));
    setup_s.push_back(Seconds(NowNs() - start));
    std::printf("set-up %d/%d: %.3f s\n", i + 1, kServeSetups, setup_s.back());
    steps->Add(s.trained.steps);
    stack.emplace(std::move(s));
  }
  report->EndToEnd("setup_s", Median(setup_s), "s", setup_s.size());
  report->EndToEnd("train_s", Median(train_s), "s", train_s.size());
  return std::move(*stack);
}

}  // namespace

Status RunInteractive(const RunOptions& options, Report* report,
                      SpanRecorder* spans) {
  StepTotals steps;
  LIGHTMIRM_ASSIGN_OR_RETURN(ServeStack stack,
                             SetUpServing(options, report, spans, &steps));
  const data::Dataset& set = stack.inputs.test;
  // Low rate for the first third of the window, high for the rest.
  LIGHTMIRM_ASSIGN_OR_RETURN(
      const Schedule schedule,
      MakeSchedule(options.seed,
                   {{"low", kLowRowsPerSec, options.seconds / 3.0},
                    {"high", kHighRowsPerSec, options.seconds * 2.0 / 3.0}},
                   set));
  std::printf("interactive: %zu requests, %zu rows over %.1f s\n",
              schedule.arrivals.size(), schedule.rows.size(),
              options.seconds);
  const OpenLoopRun run = RunOpenLoop(stack.service.get(), set, schedule);
  const serve::DispatcherStats stats = stack.service->dispatcher_stats();

  // ---- Untimed checks and metrics.
  SetStage("checks");
  double wks = 0.0, mks = 0.0;
  LIGHTMIRM_ASSIGN_OR_RETURN(const std::vector<double> expected,
                             ReferenceScores(stack.trained, set, &wks, &mks));
  report->EndToEnd("wks", wks, "ks");
  report->EndToEnd("mks", mks, "ks");
  OpenLoopTally tally(schedule.phases.size());
  CheckOpenLoop(schedule, run, expected, &tally, report, spans);
  ReportLatency(report, "low.", tally.latency[0]);
  ReportLatency(report, "high.", tally.latency[1]);
  ReportLatency(report, "", tally.latency[1]);
  ReportGenerator(schedule, tally, report);
  report->Info("offered_rows_per_s",
               StrFormat("{\"low\": %.0f, \"high\": %.0f}", kLowRowsPerSec,
                         kHighRowsPerSec));
  return ReportLedger(stack.service.get(), stack.service_registry.get(),
                      stats, stack.trained, stack.inputs, schedule, expected,
                      tally, steps, spans, report);
}

Status RunRetrain(const RunOptions& options, Report* report,
                  SpanRecorder* spans) {
  // ---- Set-up: the job's inputs, generated kRetrainSetups times.
  std::optional<Inputs> inputs;
  std::vector<double> setup_s;
  for (int i = 0; i < kRetrainSetups; ++i) {
    SetStage("set-up: generate inputs");
    inputs.reset();
    const int64_t start = NowNs();
    LIGHTMIRM_ASSIGN_OR_RETURN(Inputs generated,
                               GenerateInputs(options.seed, spans));
    inputs.emplace(std::move(generated));
    setup_s.push_back(Seconds(NowNs() - start));
  }
  report->EndToEnd("setup_s", Median(setup_s), "s", setup_s.size());
  const data::Dataset& set = inputs->test;
  LIGHTMIRM_ASSIGN_OR_RETURN(
      const Schedule schedule,
      MakeSchedule(options.seed,
                   {{"traffic", kHighRowsPerSec, kFirstTrafficSeconds}}, set));

  // ---- Timed window: whole jobs until the window is spent, and at least
  // kMinRetrainJobs so train_s is always a median of five. A job trains
  // LightMIRM on 2016-2019 (train_s), scores 2020 with Predict (wKS /
  // mKS), then deploys the model into a fresh service and serves it
  // interactive's high phase for kFirstTrafficSeconds.
  obs::MetricsRegistry service_registry;
  StepTotals steps;
  OpenLoopTally tally(schedule.phases.size());
  std::vector<double> train_s, wks, mks;
  std::vector<std::vector<double>> job_scores;
  serve::DispatcherStats stats;
  std::optional<TrainedModel> last_model;
  std::unique_ptr<serve::ShardedScoringService> last_service;
  const int64_t end = NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  std::printf("retrain: LightMIRM jobs over %.1f s, each then serving %zu "
              "requests\n",
              options.seconds, schedule.arrivals.size());
  while (train_s.size() < kMinRetrainJobs || NowNs() < end) {
    obs::MetricsRegistry train_registry;
    last_service.reset();
    SetStage("retrain job: train");
    const int64_t start = NowNs();
    LIGHTMIRM_ASSIGN_OR_RETURN(
        TrainedModel trained,
        TrainModel(inputs->train, &train_registry, spans));
    train_s.push_back(Seconds(NowNs() - start));
    steps.Add(trained.steps);
    ++report->attempted;  // the job itself: it either trained or errored
    wks.emplace_back();
    mks.emplace_back();
    LIGHTMIRM_ASSIGN_OR_RETURN(
        std::vector<double> scores,
        ReferenceScores(trained, set, &wks.back(), &mks.back()));
    LIGHTMIRM_ASSIGN_OR_RETURN(core::GbdtLrModel clone,
                               CloneModel(trained, spans));
    LIGHTMIRM_ASSIGN_OR_RETURN(
        last_service,
        StartService(std::move(clone), set.NumFeatures(), &service_registry));
    const OpenLoopRun run = RunOpenLoop(last_service.get(), set, schedule);
    const serve::DispatcherStats s = last_service->dispatcher_stats();
    stats.requests += s.requests;
    stats.rows += s.rows;
    stats.shed_requests += s.shed_requests;
    stats.size_flushes += s.size_flushes;
    stats.deadline_flushes += s.deadline_flushes;
    stats.explicit_flushes += s.explicit_flushes;
    SetStage("retrain job: checks");
    CheckOpenLoop(schedule, run, scores, &tally, report, spans);
    job_scores.push_back(std::move(scores));
    last_model.emplace(std::move(trained));
  }
  SetStage("checks");
  report->EndToEnd("train_s", Median(train_s), "s", train_s.size());
  report->EndToEnd("wks", wks.front(), "ks", wks.size());
  report->EndToEnd("mks", mks.front(), "ks", mks.size());
  for (size_t j = 1; j < job_scores.size(); ++j) {
    if (job_scores[j] != job_scores.front() || wks[j] != wks.front() ||
        mks[j] != mks.front()) {
      report->Fail(StrFormat("job %zu trained a different model than job 0 "
                             "(wKS %.17g vs %.17g)",
                             j, wks[j], wks.front()));
    }
  }
  ReportLatency(report, "", tally.latency[0]);
  ReportGenerator(schedule, tally, report);
  report->Info("jobs", StrFormat("%zu", train_s.size()));
  report->Info("train_s_each", [&] {
    std::string out = "[";
    for (size_t j = 0; j < train_s.size(); ++j) {
      out += StrFormat("%s%.6f", j ? ", " : "", train_s[j]);
    }
    return out + "]";
  }());
  return ReportLedger(last_service.get(), &service_registry, stats,
                      *last_model, *inputs, schedule, job_scores.back(), tally,
                      steps, spans, report);
}

}  // namespace perfbench
