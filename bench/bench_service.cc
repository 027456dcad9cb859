// Sharded scoring service bench: merged fleet health equals one monitor.
//
// Trains on 2016-2019, replays the shifted 2020 year (Fig 10 Guangdong
// share shift, Fig 11 Hubei COVID shock) twice — once through a single
// ModelHealthMonitor (obs::ReplayStream, the bench_monitor_replay path) and
// once through a ShardedScoringService whose per-shard monitors each
// observe only their hash-slice of the traffic. With windows sized past
// the replayed year, the service's snapshot-merged health timeline must
// match the single-monitor timeline byte for byte
// (core::FormatHealthTrajectory output), and Hubei + Guangdong must still
// reach ALERT through the merge. Writes BENCH_service.json
// (format_version 5).
//
// Open-loop load is perfbench's `interactive` workload (Poisson 1/8/64-row
// requests, a hot province, latency from the scheduled send, with latency
// windows, voided attempts and bounds), and what the service's telemetry
// costs is bench_overhead's service leg, so this bench has neither.
#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/gbdt_lr_model.h"
#include "core/report.h"
#include "data/env_split.h"
#include "data/loan_generator.h"
#include "obs/monitor.h"
#include "obs/replay.h"
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

const char* BoolName(bool value) { return value ? "true" : "false"; }

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
  Banner("Sharded scoring service", "merged fleet health vs one monitor");

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
  serve::ServiceOptions service_options;
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

  const bool pass = timeline_match && hubei_alert && guangdong_alert;
  std::printf("verdict: %s\n", pass ? "PASS" : "FAIL");

  std::string json = "{\n";
  json += "  \"format_version\": 5,\n";
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
  json += StrFormat("  \"pass\": %s\n", BoolName(pass));
  json += "}\n";
  const std::string json_path =
      cfg.GetString("json_out", "BENCH_service.json");
  if (WriteTextFile(json_path, json)) {
    std::printf("wrote %s\n", json_path.c_str());
  }
  return pass ? 0 : 1;
}
