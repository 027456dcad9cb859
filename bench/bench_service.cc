// Sharded scoring service bench, two legs.
//
// Replay-equivalence leg: trains on 2016-2019, replays the shifted 2020
// year (Fig 10 Guangdong share shift, Fig 11 Hubei COVID shock) twice —
// once through a single ModelHealthMonitor (obs::ReplayStream, the
// bench_monitor_replay path) and once through a ShardedScoringService
// whose per-shard monitors each observe only their hash-slice of the
// traffic. With windows sized past the replayed year, the service's
// snapshot-merged health timeline must match the single-monitor timeline
// byte for byte (core::FormatHealthTrajectory output), and Hubei +
// Guangdong must still reach ALERT through the merge.
//
// Open-loop load is perfbench's `interactive` workload (Poisson 1/8/64-row
// requests, a hot province, latency from the scheduled send, with latency
// windows, voided attempts and bounds), so this bench has no load leg.
//
// Telemetry leg: the same service runs with the request-lifecycle
// instrumentation (serve/service/telemetry.h) attached to a dedicated
// registry. The leg is a fixed schedule of sync 64-row requests, sized
// so one pass takes about overhead_leg_ms of work (the dispatcher has no
// batching deadline, so a pass is work, not sleep).
// Rounds of three passes — telemetry on, off, and off again, in rotating
// order — repeat overhead_iters times; the best pass of each kind gives
// the overhead (on vs off) and its noise floor (off vs off).
// Gates: the overhead must stay within max_overhead_percent (default 2%);
// scores must be bit-identical either way. The lifecycle currently costs
// more than 2%, so this gate fails until the telemetry cost is cut. The
// report adds per-stage latency quantiles (queue wait, batch formation,
// scoring, monitor feed) read from the `service.stage.*` histograms, plus
// the slowest-request exemplars with their stage breakdowns. Writes
// BENCH_service.json (format_version 4).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/gbdt_lr_model.h"
#include "core/report.h"
#include "data/env_split.h"
#include "data/loan_generator.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/replay.h"
#include "serve/service/exemplar.h"
#include "serve/service/sharded_service.h"

using namespace lightmirm;
using namespace lightmirm::bench;

namespace {

// bench_monitor_replay's half-year replay tuning, with the window opened
// past the whole replayed year: merged-vs-single equality is exact only
// while no shard window has evicted, so the window must hold every 2020
// row (rows_per_year of them) on the single monitor and every slice on
// the shards.
obs::MonitorOptions ServiceMonitorOptions(size_t window) {
  obs::MonitorOptions options;
  options.window = window;
  options.min_rows = 150;
  options.min_labeled = 150;
  options.fairness_min_labeled = 300;
  options.psi = {0.15, 0.3, 0.2};
  options.drift_ks = {0.15, 0.25, 0.2};
  options.default_rate_rise = {0.6, 1.2, 0.2};
  options.auc_drop = {0.1, 0.18, 0.2};
  options.ks_drop = {0.25, 0.4, 0.2};
  return options;
}

data::Dataset HalfSlice(const data::Dataset& full, int year, int half) {
  std::vector<size_t> rows;
  for (size_t i = 0; i < full.NumRows(); ++i) {
    if (full.years()[i] == year && full.halves()[i] == half) {
      rows.push_back(i);
    }
  }
  return Unwrap(full.Select(rows), "slicing replay half");
}

serve::ScoreRequest RowsRequest(const data::Dataset& set,
                                const std::vector<size_t>& rows,
                                int64_t id_base, bool with_labels) {
  serve::ScoreRequest request;
  const size_t width = set.NumFeatures();
  request.loan_ids.reserve(rows.size());
  request.features.reserve(rows.size() * width);
  for (const size_t row : rows) {
    request.loan_ids.push_back(id_base + static_cast<int64_t>(row));
    const double* src = set.features().Row(row);
    request.features.insert(request.features.end(), src, src + width);
    request.envs.push_back(set.envs()[row]);
    if (with_labels) request.labels.push_back(set.labels()[row]);
  }
  return request;
}

const char* BoolName(bool value) { return value ? "true" : "false"; }

struct StageQuantiles {
  const char* key = "";
  uint64_t count = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

StageQuantiles ReadStage(obs::MetricsRegistry* registry, const char* key,
                         const std::string& histogram) {
  const obs::Histogram* h = registry->GetHistogram(histogram);
  StageQuantiles q;
  q.key = key;
  q.count = h->Count();
  q.p50_ms = h->Quantile(0.50) * 1e3;
  q.p95_ms = h->Quantile(0.95) * 1e3;
  q.p99_ms = h->Quantile(0.99) * 1e3;
  return q;
}

}  // namespace

int main(int argc, char** argv) {
  const ConfigMap cfg = ParseArgs(argc, argv);
  data::LoanGeneratorOptions gen;
  gen.rows_per_year = static_cast<int>(cfg.GetInt("rows_per_year", 6000));
  gen.seed = static_cast<uint64_t>(cfg.GetInt("seed", 7));
  core::GbdtLrOptions options;
  options.booster.num_trees = static_cast<int>(cfg.GetInt("trees", 15));
  options.booster.tree.max_leaves =
      static_cast<int>(cfg.GetInt("leaves", 8));
  options.trainer.epochs = static_cast<int>(cfg.GetInt("epochs", 40));
  options.min_env_rows = 60;
  const size_t num_shards = static_cast<size_t>(cfg.GetInt("shards", 4));
  // Window past the replayed year so no window — single or shard — ever
  // evicts during the equivalence leg.
  const size_t window = static_cast<size_t>(cfg.GetInt(
      "window", std::max<int64_t>(8192, 2 * gen.rows_per_year)));
  Banner("Sharded scoring service",
         "merged fleet health vs one monitor, plus telemetry overhead");

  const data::Dataset full =
      Unwrap(data::LoanGenerator(gen).Generate(), "generating data");
  const auto split =
      Unwrap(data::TemporalSplit(full, 2020), "temporal split at 2020");
  core::GbdtLrModel model = Unwrap(
      core::GbdtLrModel::Train(split.train, core::Method::kErm, options),
      "training the serving model");
  const auto session = model.scoring_session();
  const obs::ScoreReference reference = model.score_reference();
  const int guangdong = *data::LoanGenerator::ProvinceIndex("Guangdong");
  const int hubei = *data::LoanGenerator::ProvinceIndex("Hubei");

  // ---- Single-monitor reference timeline (the bench_monitor_replay
  // path): one monitor observes the whole 2020 stream.
  const data::Dataset year2020 = [&] {
    std::vector<size_t> rows;
    for (size_t i = 0; i < full.NumRows(); ++i) {
      if (full.years()[i] == 2020) rows.push_back(i);
    }
    return Unwrap(full.Select(rows), "slicing 2020");
  }();
  obs::ReplayResult single_result;
  {
    auto monitor = Unwrap(
        obs::ModelHealthMonitor::Create(reference,
                                        ServiceMonitorOptions(window)),
        "creating the single monitor");
    single_result =
        Unwrap(obs::ReplayStream(*session, monitor.get(), year2020),
               "replaying 2020 through one monitor");
  }
  const std::string single_timeline =
      core::FormatHealthTrajectory(single_result, reference);
  std::printf("==== 2020 replay: one monitor ====\n%s\n",
              single_timeline.c_str());

  // ---- The same stream through the sharded service: rows hash across
  // shards, each shard's monitor sees only its slice, and the per-period
  // verdict is the snapshot merge over all shard windows.
  obs::MetricsRegistry service_registry;
  serve::ServiceOptions service_options;
  service_options.telemetry_registry = &service_registry;
  service_options.slowest_k =
      static_cast<size_t>(cfg.GetInt("slowest_k", 16));
  service_options.dispatcher.num_shards = num_shards;
  service_options.dispatcher.feature_width = full.NumFeatures();
  service_options.dispatcher.max_pending_rows =
      static_cast<size_t>(cfg.GetInt("max_pending_rows", 65536));
  service_options.monitor = ServiceMonitorOptions(window);
  auto service = Unwrap(
      serve::ShardedScoringService::Create(std::move(model),
                                           service_options),
      "creating the sharded service");

  obs::ReplayResult sharded_result;
  const size_t replay_chunk =
      static_cast<size_t>(cfg.GetInt("replay_chunk", 512));
  for (const int half : {1, 2}) {
    const data::Dataset slice = HalfSlice(full, 2020, half);
    std::vector<size_t> rows(slice.NumRows());
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
    for (size_t begin = 0; begin < rows.size(); begin += replay_chunk) {
      const size_t end = std::min(begin + replay_chunk, rows.size());
      const std::vector<size_t> chunk(rows.begin() + begin,
                                      rows.begin() + end);
      // Loan ids offset per half so every row keeps a distinct identity.
      Check(service
                ->Score(RowsRequest(slice, chunk,
                                    half * 1000000, /*with_labels=*/true))
                .status(),
            "scoring a replay chunk");
    }
    service->Flush();
    obs::ReplayPeriod period;
    period.year = 2020;
    period.half = half;
    period.rows = slice.NumRows();
    period.health =
        Unwrap(service->EvaluateHealth(), "merged health evaluation");
    sharded_result.periods.push_back(std::move(period));
  }
  const std::string sharded_timeline =
      core::FormatHealthTrajectory(sharded_result, reference);
  std::printf("==== 2020 replay: %zu shards, merged ====\n%s\n",
              num_shards, sharded_timeline.c_str());

  const bool timeline_match = sharded_timeline == single_timeline;
  const bool hubei_alert = sharded_result.ReachedAlert(hubei);
  const bool guangdong_alert = sharded_result.ReachedAlert(guangdong);
  std::printf("merged timeline matches single monitor byte-for-byte: %s\n",
              BoolName(timeline_match));
  std::printf("Hubei reached ALERT through the merge:     %s\n",
              BoolName(hubei_alert));
  std::printf("Guangdong reached ALERT through the merge: %s\n\n",
              BoolName(guangdong_alert));
  if (!timeline_match) {
    std::fprintf(stderr,
                 "FAIL: merged fleet timeline diverged from the single "
                 "monitor\n");
  }

  // ---- Telemetry overhead leg: the same sync lifecycle with the
  // instrumentation attached vs detached. Alternating best-of-N over a
  // fixed request schedule keeps thermal / cache drift from biasing one
  // leg; the service is already warm from the replay leg and the schedule
  // sizing passes, and a warmup round is discarded. A second telemetry-off
  // pass per round measures the method's own noise floor, printed next to
  // the overhead.
  const int overhead_iters =
      static_cast<int>(cfg.GetInt("overhead_iters", 30));
  const double overhead_leg_ms = cfg.GetDouble("overhead_leg_ms", 150.0);
  const double max_overhead_percent =
      cfg.GetDouble("max_overhead_percent", 2.0);
  Rng schedule_rng(gen.seed + 4242);
  const auto next_request = [&] {
    std::vector<size_t> rows(64);
    for (size_t& row : rows) {
      row = schedule_rng.UniformInt(year2020.NumRows());
    }
    return rows;
  };
  const auto run_schedule =
      [&](const std::vector<std::vector<size_t>>& schedule) {
        WallTimer watch;
        std::vector<double> first_scores;
        for (const std::vector<size_t>& rows : schedule) {
          const auto response = service->Score(
              RowsRequest(year2020, rows, 7000000, /*with_labels=*/false));
          Check(response.status(), "overhead leg request");
          if (first_scores.empty()) first_scores = response->scores;
        }
        return std::make_pair(watch.Seconds(), std::move(first_scores));
      };
  // Size the schedule by work time: grow it until two passes in a row
  // with telemetry off each take at least overhead_leg_ms (passes speed up
  // as the service warms, so one slow early pass is not enough).
  obs::SetTelemetryEnabled(false);
  std::vector<std::vector<size_t>> overhead_schedule;
  for (double seconds = 0.0; seconds < overhead_leg_ms * 1e-3;
       seconds = std::min(run_schedule(overhead_schedule).first,
                          run_schedule(overhead_schedule).first)) {
    const size_t want =
        seconds <= 0.0
            ? 200
            : static_cast<size_t>(std::ceil(
                  1.05 * overhead_leg_ms * 1e-3 / seconds *
                  static_cast<double>(overhead_schedule.size())));
    while (overhead_schedule.size() < want) {
      overhead_schedule.push_back(next_request());
    }
  }
  double enabled_seconds = 1e300;
  double disabled_seconds = 1e300;
  double disabled_repeat_seconds = 1e300;
  bool scores_match = true;
  std::vector<double> identity_scores;
  // Legs 0 = on, 1 = off, 2 = off again. Rounds cycle through all six
  // orders, so each leg runs in each position and after each other leg
  // equally often: a pass's speed depends on what ran just before it.
  static constexpr int kOrders[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                                        {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (int iter = -1; iter < overhead_iters; ++iter) {
    for (const int leg : kOrders[(iter + 6) % 6]) {
      obs::SetTelemetryEnabled(leg == 0);
      auto [seconds, scores] = run_schedule(overhead_schedule);
      // Bit-identity gate: the same rows must score to the same bits
      // whether or not the lifecycle instrumentation is attached.
      if (identity_scores.empty()) {
        identity_scores = std::move(scores);
      } else if (identity_scores != scores) {
        scores_match = false;
      }
      if (iter < 0) continue;  // warmup round, every leg discarded
      double& slot = leg == 0   ? enabled_seconds
                     : leg == 1 ? disabled_seconds
                                : disabled_repeat_seconds;
      slot = std::min(slot, seconds);
    }
  }
  obs::SetTelemetryEnabled(true);
  const double overhead_percent =
      (enabled_seconds / disabled_seconds - 1.0) * 100.0;
  const double noise_floor_percent =
      (disabled_repeat_seconds / disabled_seconds - 1.0) * 100.0;
  const bool overhead_ok = overhead_percent < max_overhead_percent;
  std::printf("telemetry overhead: %.3f%% (on %.4fs vs off %.4fs, %zu sync "
              "64-row requests per leg, best of %d, gate < %.1f%%)\n",
              overhead_percent, enabled_seconds, disabled_seconds,
              overhead_schedule.size(), overhead_iters, max_overhead_percent);
  std::printf("noise floor, off vs off: %.3f%% (%.4fs vs %.4fs)\n",
              noise_floor_percent, disabled_repeat_seconds,
              disabled_seconds);
  std::printf("scores bit-identical with telemetry on/off: %s\n\n",
              BoolName(scores_match));
  if (!overhead_ok) {
    std::fprintf(stderr,
                 "FAIL: telemetry overhead %.3f%% above the %.1f%% gate\n",
                 overhead_percent, max_overhead_percent);
  }
  if (!scores_match) {
    std::fprintf(stderr,
                 "FAIL: scores changed when telemetry was detached\n");
  }

  const serve::DispatcherStats stats = service->dispatcher_stats();
  const uint64_t flushes = stats.idle_flushes + stats.explicit_flushes;
  const double rows_per_flush =
      flushes == 0 ? 0.0
                   : static_cast<double>(stats.rows) /
                         static_cast<double>(flushes);
  std::printf("dispatcher: %llu requests, %llu rows, shard flushes %llu "
              "idle / %llu explicit (%.1f rows each), %llu shed\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.rows),
              static_cast<unsigned long long>(stats.idle_flushes),
              static_cast<unsigned long long>(stats.explicit_flushes),
              rows_per_flush,
              static_cast<unsigned long long>(stats.shed_requests));

  // ---- Stage-latency breakdown: where time went inside the service,
  // from the lifecycle histograms (fleet-wide, both legs above). Queue
  // wait and batch formation come from request stamps; scoring and
  // monitor feed from the shard batch path.
  const std::vector<StageQuantiles> stages = {
      ReadStage(&service_registry, "queue_wait",
                "service.stage.queue_wait.seconds"),
      ReadStage(&service_registry, "batch_form",
                "service.stage.batch_form.seconds"),
      ReadStage(&service_registry, "score", "service.stage.score.seconds"),
      ReadStage(&service_registry, "monitor_feed",
                "service.stage.monitor_feed.seconds"),
  };
  std::printf("\n%-14s %10s %10s %10s %10s\n", "stage", "count", "p50 ms",
              "p95 ms", "p99 ms");
  for (const StageQuantiles& stage : stages) {
    std::printf("%-14s %10llu %10.4f %10.4f %10.4f\n", stage.key,
                static_cast<unsigned long long>(stage.count), stage.p50_ms,
                stage.p95_ms, stage.p99_ms);
  }
  const std::vector<serve::RequestExemplar> slowest =
      service->SlowestRequests();
  std::printf("slowest-request exemplars captured: %zu\n", slowest.size());

  const bool pass = timeline_match && hubei_alert && guangdong_alert &&
                    overhead_ok && scores_match;
  std::printf("verdict: %s\n", pass ? "PASS" : "FAIL");

  std::string json = "{\n";
  json += "  \"format_version\": 4,\n";
  json += StrFormat("  \"rows_per_year\": %d,\n", gen.rows_per_year);
  json += StrFormat("  \"seed\": %llu,\n",
                    static_cast<unsigned long long>(gen.seed));
  json += StrFormat("  \"trees\": %d,\n", options.booster.num_trees);
  json += StrFormat("  \"shards\": %zu,\n", num_shards);
  json += StrFormat("  \"window\": %zu,\n", window);
  json += HardwareJsonFields();
  json += StrFormat("  \"timeline_match\": %s,\n",
                    BoolName(timeline_match));
  json += StrFormat("  \"hubei_alert\": %s,\n", BoolName(hubei_alert));
  json += StrFormat("  \"guangdong_alert\": %s,\n",
                    BoolName(guangdong_alert));
  json += StrFormat(
      "  \"dispatcher\": {\"requests\": %llu, \"rows\": %llu, "
      "\"idle_flushes\": %llu, \"explicit_flushes\": %llu, "
      "\"rows_per_flush\": %.2f, \"shed_requests\": %llu},\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.rows),
      static_cast<unsigned long long>(stats.idle_flushes),
      static_cast<unsigned long long>(stats.explicit_flushes),
      rows_per_flush, static_cast<unsigned long long>(stats.shed_requests));
  json += "  \"telemetry_overhead\": {\n";
  json += StrFormat("    \"leg_requests\": %zu,\n", overhead_schedule.size());
  json += StrFormat("    \"rounds\": %d,\n", overhead_iters);
  json += StrFormat("    \"enabled_seconds\": %.6f,\n", enabled_seconds);
  json += StrFormat("    \"disabled_seconds\": %.6f,\n", disabled_seconds);
  json += StrFormat("    \"disabled_repeat_seconds\": %.6f,\n",
                    disabled_repeat_seconds);
  json += StrFormat("    \"overhead_percent\": %.4f,\n", overhead_percent);
  json += StrFormat("    \"noise_floor_percent\": %.4f,\n",
                    noise_floor_percent);
  json += StrFormat("    \"max_overhead_percent\": %.2f,\n",
                    max_overhead_percent);
  json += StrFormat("    \"within_target\": %s\n", BoolName(overhead_ok));
  json += "  },\n";
  json += StrFormat("  \"scores_bit_identical\": %s,\n",
                    BoolName(scores_match));
  json += "  \"stages\": {\n";
  for (size_t i = 0; i < stages.size(); ++i) {
    const StageQuantiles& stage = stages[i];
    json += StrFormat(
        "    \"%s\": {\"count\": %llu, \"p50_ms\": %.4f, \"p95_ms\": %.4f, "
        "\"p99_ms\": %.4f}%s\n",
        stage.key, static_cast<unsigned long long>(stage.count),
        stage.p50_ms, stage.p95_ms, stage.p99_ms,
        i + 1 < stages.size() ? "," : "");
  }
  json += "  },\n";
  json += StrFormat("  \"slowest_requests\": %s,\n",
                    serve::ExportExemplarsJson(slowest).c_str());
  json += StrFormat("  \"pass\": %s\n", BoolName(pass));
  json += "}\n";
  const std::string json_path =
      cfg.GetString("json_out", "BENCH_service.json");
  if (WriteTextFile(json_path, json)) {
    std::printf("wrote %s\n", json_path.c_str());
  }
  return pass ? 0 : 1;
}
