// Overhead harness: what watching the model costs on each path it watches,
// measured by one method on one dataset and written to one artifact.
//
// Legs. Each is a unit of work run with its switch on or off, all on the
// data and shared booster of one ExperimentRunner:
//   training  one LightMIRM run (RunMethodWithOptions); the switch is
//             obs::SetTelemetryEnabled. Its work time is the run's epochs
//             (StepTimer's "epoch" total), where the trainer's
//             instrumentation lives; leaf encoding, session compile, test
//             scoring and evaluation around them are not counted.
//   serving   ScoringSession::Score over the 2020 rows; same switch.
//   monitor   the same scoring with the model's health monitor attached
//             vs detached (telemetry on).
//   service   sync 64-row ShardedScoringService::Score requests drawn from
//             the 2020 rows; same switch as training.
//
// Method, the same for every leg. A pass repeats the unit and sums the
// units' work time (the unit's wall clock, except training's); the pass
// grows until two switch-off passes in a row each take at least leg_ms
// (default 150), so a pass times work, not a request count. One warmup
// round is discarded, then `rounds` rounds (default 30) cycle through the
// six orders of on / off / off-again, so each kind runs in each position
// and after each other kind equally often: a pass's speed depends on what
// ran just before it. The best pass of each kind gives the overhead (on
// vs off) and the method's noise floor (off-again vs off).
//
// Gates, each written as {name, value, threshold, passed}: every leg's
// overhead stays under the 2% budget, and every pass's scores (the first
// unit's) equal the first pass's bit for bit, on or off. The binary exits
// 1 when any gate fails. The service leg also writes the service's stage
// latency breakdown and its slowest-request exemplars. Writes
// BENCH_overhead.json (format_version 1).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/gbdt_lr_model.h"
#include "obs/metrics.h"
#include "serve/service/exemplar.h"
#include "serve/service/sharded_service.h"
#include "train/step_timer.h"

using namespace lightmirm;
using namespace lightmirm::bench;

namespace {

/// Every leg's overhead budget, in percent of its switch-off time.
constexpr double kBudgetPercent = 2.0;

/// Runs unit `i` of a pass, writing the scores it produced to `scores`, and
/// returns its work time in seconds.
using Unit = std::function<double(size_t i, std::vector<double>* scores)>;

struct Leg {
  std::string name;
  std::string unit;
  size_t units_per_pass = 0;
  double on_seconds = 1e300;  ///< best pass of each kind
  double off_seconds = 1e300;
  double off_again_seconds = 1e300;
  int score_mismatches = 0;  ///< passes whose scores differ from the first

  double OverheadPercent() const {
    return (on_seconds / off_seconds - 1.0) * 100.0;
  }
  double NoiseFloorPercent() const {
    return (off_again_seconds / off_seconds - 1.0) * 100.0;
  }
};

/// The one measurement method (header comment). Leaves the switch on.
Leg MeasureLeg(std::string name, std::string unit_name,
               const std::function<void(bool on)>& set_switch,
               const Unit& unit, int rounds, double leg_ms) {
  Leg leg{std::move(name), std::move(unit_name)};
  std::vector<double> scores, first_scores;
  const auto pass = [&](size_t units) {
    double seconds = 0.0;
    for (size_t i = 0; i < units; ++i) {
      seconds += unit(i, &scores);
      if (i == 0) first_scores = scores;
    }
    return seconds;
  };
  // Passes speed up as caches and pools warm, so one slow early pass is
  // not enough: two in a row must each reach leg_ms.
  const double leg_seconds = leg_ms * 1e-3;
  set_switch(false);
  for (leg.units_per_pass = 1;;) {
    const double seconds =
        std::min(pass(leg.units_per_pass), pass(leg.units_per_pass));
    if (seconds >= leg_seconds) break;
    const double grow = seconds > 0.0 ? 1.05 * leg_seconds / seconds : 2.0;
    leg.units_per_pass = std::max(
        leg.units_per_pass + 1,
        static_cast<size_t>(std::ceil(
            grow * static_cast<double>(leg.units_per_pass))));
  }
  // Kinds 0 = on, 1 = off, 2 = off again.
  static constexpr int kOrders[6][3] = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                                        {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  std::vector<double> reference;
  for (int round = -1; round < rounds; ++round) {
    for (const int kind : kOrders[(round + 6) % 6]) {
      set_switch(kind == 0);
      const double seconds = pass(leg.units_per_pass);
      if (reference.empty()) {
        reference = first_scores;
      } else if (first_scores != reference) {
        ++leg.score_mismatches;
      }
      if (round < 0) continue;  // warmup round, every kind discarded
      double& best = kind == 0   ? leg.on_seconds
                     : kind == 1 ? leg.off_seconds
                                 : leg.off_again_seconds;
      best = std::min(best, seconds);
    }
  }
  set_switch(true);
  return leg;
}

struct Gate {
  std::string name;
  double value = 0.0;
  double threshold = 0.0;
  bool passed = false;
};

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
  core::ExperimentConfig config = MakeConfig(cfg);
  config.generator.rows_per_year =
      static_cast<int>(cfg.GetInt("rows_per_year", 4000));
  config.model.trainer.epochs = static_cast<int>(cfg.GetInt("epochs", 60));
  const int rounds = static_cast<int>(cfg.GetInt("rounds", 30));
  const double leg_ms = cfg.GetDouble("leg_ms", 150.0);
  Banner("Overhead",
         "training, serving, monitor and service legs with their switch on "
         "vs off");

  auto runner =
      Unwrap(core::ExperimentRunner::Create(config), "setting up experiment");
  const data::Dataset& year2020 = runner->test();
  const auto telemetry_switch = [](bool on) { obs::SetTelemetryEnabled(on); };
  std::vector<Leg> legs;

  legs.push_back(MeasureLeg(
      "training", "epochs of one LightMIRM run", telemetry_switch,
      [&](size_t, std::vector<double>* scores) {
        core::MethodResult run = Unwrap(
            runner->RunMethodWithOptions(core::Method::kLightMirm,
                                         config.model, false),
            "training LightMIRM");
        *scores = std::move(run.test_scores);
        return run.step_times.TotalSeconds(train::kStepEpoch);
      },
      rounds, leg_ms));

  core::GbdtLrModel model = Unwrap(
      core::GbdtLrModel::TrainWithBooster(runner->shared_booster(),
                                          runner->train(),
                                          core::Method::kErm, config.model),
      "training the serving model");
  const auto session = model.scoring_session();
  const Unit score_2020 = [&](size_t, std::vector<double>* scores) {
    WallTimer watch;
    Check(session->Score(year2020.features(), &year2020.envs(), scores),
          "scoring 2020");
    return watch.Seconds();
  };
  const std::string score_unit =
      StrFormat("Score over %zu rows of 2020", year2020.NumRows());
  legs.push_back(MeasureLeg("serving", score_unit, telemetry_switch,
                            score_2020, rounds, leg_ms));

  const auto monitor =
      Unwrap(model.StartMonitoring(), "attaching the health monitor");
  legs.push_back(MeasureLeg(
      "monitor", score_unit,
      [&](bool attached) {
        (void)session->DetachMonitor();
        if (attached) {
          Check(session->AttachMonitor(monitor), "attaching the monitor");
        }
      },
      score_2020, rounds, leg_ms));
  // The service shares this session and feeds its own shard monitors.
  (void)session->DetachMonitor();

  obs::MetricsRegistry service_registry;
  serve::ServiceOptions service_options;
  service_options.telemetry_registry = &service_registry;
  service_options.dispatcher.feature_width = year2020.NumFeatures();
  auto service = Unwrap(
      serve::ShardedScoringService::Create(std::move(model), service_options),
      "creating the sharded service");
  Rng schedule_rng(config.generator.seed + 4242);
  std::vector<std::vector<size_t>> schedule;
  legs.push_back(MeasureLeg(
      "service", "one sync 64-row request", telemetry_switch,
      [&](size_t i, std::vector<double>* scores) {
        while (schedule.size() <= i) {
          std::vector<size_t> rows(64);
          for (size_t& row : rows) {
            row = schedule_rng.UniformInt(year2020.NumRows());
          }
          schedule.push_back(std::move(rows));
        }
        WallTimer watch;
        *scores = Unwrap(service->Score(RowsRequest(year2020, schedule[i],
                                                    7000000,
                                                    /*with_labels=*/false)),
                         "service request")
                      .scores;
        return watch.Seconds();
      },
      rounds, leg_ms));

  std::vector<Gate> gates;
  std::printf("%-9s %-30s %6s %10s %10s %10s %9s %9s\n", "leg", "unit",
              "units", "on s", "off s", "off2 s", "overhead", "noise");
  for (const Leg& leg : legs) {
    std::printf("%-9s %-30s %6zu %10.4f %10.4f %10.4f %8.2f%% %8.2f%%\n",
                leg.name.c_str(), leg.unit.c_str(), leg.units_per_pass,
                leg.on_seconds, leg.off_seconds, leg.off_again_seconds,
                leg.OverheadPercent(), leg.NoiseFloorPercent());
    gates.push_back({leg.name + ".overhead_percent", leg.OverheadPercent(),
                     kBudgetPercent, leg.OverheadPercent() < kBudgetPercent});
    gates.push_back({leg.name + ".score_mismatches",
                     static_cast<double>(leg.score_mismatches), 0.0,
                     leg.score_mismatches == 0});
  }
  std::printf("(best of %d rounds per kind; overhead = on vs off, noise = "
              "off again vs off)\n\n",
              rounds);

  // Where the service leg's time went, from the lifecycle histograms its
  // telemetry-on passes filled.
  const serve::DispatcherStats stats = service->dispatcher_stats();
  const uint64_t flushes = stats.idle_flushes + stats.explicit_flushes;
  const double rows_per_flush =
      flushes == 0 ? 0.0
                   : static_cast<double>(stats.rows) /
                         static_cast<double>(flushes);
  std::printf("service dispatcher: %llu requests, %llu rows, shard flushes "
              "%llu idle / %llu explicit (%.1f rows each), %llu shed\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.rows),
              static_cast<unsigned long long>(stats.idle_flushes),
              static_cast<unsigned long long>(stats.explicit_flushes),
              rows_per_flush,
              static_cast<unsigned long long>(stats.shed_requests));
  const std::vector<StageQuantiles> stages = {
      ReadStage(&service_registry, "queue_wait",
                "service.stage.queue_wait.seconds"),
      ReadStage(&service_registry, "batch_form",
                "service.stage.batch_form.seconds"),
      ReadStage(&service_registry, "score", "service.stage.score.seconds"),
      ReadStage(&service_registry, "monitor_feed",
                "service.stage.monitor_feed.seconds"),
  };
  std::printf("%-14s %10s %10s %10s %10s\n", "stage", "count", "p50 ms",
              "p95 ms", "p99 ms");
  for (const StageQuantiles& stage : stages) {
    std::printf("%-14s %10llu %10.4f %10.4f %10.4f\n", stage.key,
                static_cast<unsigned long long>(stage.count), stage.p50_ms,
                stage.p95_ms, stage.p99_ms);
  }
  const std::vector<serve::RequestExemplar> slowest =
      service->SlowestRequests();
  std::printf("slowest-request exemplars captured: %zu\n\n", slowest.size());

  bool pass = true;
  for (const Gate& gate : gates) {
    std::printf("gate %-28s %10.4f  threshold %g  %s\n", gate.name.c_str(),
                gate.value, gate.threshold, gate.passed ? "PASS" : "FAIL");
    pass = pass && gate.passed;
  }
  std::printf("verdict: %s\n", pass ? "PASS" : "FAIL");

  std::string json = "{\n";
  json += "  \"format_version\": 1,\n";
  json += StrFormat("  \"rows_per_year\": %d,\n",
                    config.generator.rows_per_year);
  json += StrFormat("  \"seed\": %llu,\n",
                    static_cast<unsigned long long>(config.generator.seed));
  json += StrFormat("  \"trees\": %d,\n", config.model.booster.num_trees);
  json += StrFormat("  \"epochs\": %d,\n", config.model.trainer.epochs);
  json += StrFormat("  \"shards\": %zu,\n",
                    service_options.dispatcher.num_shards);
  json += StrFormat("  \"rounds\": %d,\n", rounds);
  json += StrFormat("  \"leg_ms\": %.1f,\n", leg_ms);
  json += HardwareJsonFields();
  json += "  \"legs\": {\n";
  for (size_t i = 0; i < legs.size(); ++i) {
    const Leg& leg = legs[i];
    json += StrFormat(
        "    \"%s\": {\"unit\": \"%s\", \"units_per_pass\": %zu, "
        "\"on_seconds\": %.6f, \"off_seconds\": %.6f, "
        "\"off_again_seconds\": %.6f, \"overhead_percent\": %.4f, "
        "\"noise_floor_percent\": %.4f}%s\n",
        leg.name.c_str(), JsonEscape(leg.unit).c_str(), leg.units_per_pass,
        leg.on_seconds, leg.off_seconds, leg.off_again_seconds,
        leg.OverheadPercent(), leg.NoiseFloorPercent(),
        i + 1 < legs.size() ? "," : "");
  }
  json += "  },\n";
  json += "  \"service\": {\n";
  json += StrFormat(
      "    \"dispatcher\": {\"requests\": %llu, \"rows\": %llu, "
      "\"idle_flushes\": %llu, \"explicit_flushes\": %llu, "
      "\"rows_per_flush\": %.2f, \"shed_requests\": %llu},\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.rows),
      static_cast<unsigned long long>(stats.idle_flushes),
      static_cast<unsigned long long>(stats.explicit_flushes),
      rows_per_flush, static_cast<unsigned long long>(stats.shed_requests));
  json += "    \"stages\": {\n";
  for (size_t i = 0; i < stages.size(); ++i) {
    const StageQuantiles& stage = stages[i];
    json += StrFormat(
        "      \"%s\": {\"count\": %llu, \"p50_ms\": %.4f, \"p95_ms\": "
        "%.4f, \"p99_ms\": %.4f}%s\n",
        stage.key, static_cast<unsigned long long>(stage.count),
        stage.p50_ms, stage.p95_ms, stage.p99_ms,
        i + 1 < stages.size() ? "," : "");
  }
  json += "    },\n";
  json += StrFormat("    \"slowest_requests\": %s\n",
                    serve::ExportExemplarsJson(slowest).c_str());
  json += "  },\n";
  json += "  \"gates\": [\n";
  for (size_t i = 0; i < gates.size(); ++i) {
    const Gate& gate = gates[i];
    json += StrFormat(
        "    {\"name\": \"%s\", \"value\": %.6g, \"threshold\": %g, "
        "\"passed\": %s}%s\n",
        gate.name.c_str(), gate.value, gate.threshold,
        gate.passed ? "true" : "false", i + 1 < gates.size() ? "," : "");
  }
  json += "  ]\n";
  json += "}\n";
  const std::string json_path =
      cfg.GetString("json_out", "BENCH_overhead.json");
  if (WriteTextFile(json_path, json)) {
    std::printf("wrote %s\n", json_path.c_str());
  }
  return pass ? 0 : 1;
}
