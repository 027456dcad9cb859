// Table III + Figure 7: wall-clock cost of each training step (loading
// data, transforming the format, inner optimization, calculating the
// meta-losses, backward propagation; whole-epoch total) for complete
// meta-IRM, meta-IRM(5), and LightMIRM. The paper measures ~30x faster
// meta-loss calculation and ~12x faster epochs for LightMIRM vs complete
// meta-IRM; the ratios follow from the O(2M^2)-vs-O(4M) operation counts
// reproduced here (absolute seconds depend on the machine).
#include "bench_util.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "train/step_timer.h"

using namespace lightmirm;
using namespace lightmirm::bench;

int main(int argc, char** argv) {
  const ConfigMap cfg = ParseArgs(argc, argv);
  core::ExperimentConfig config = MakeConfig(cfg);
  // Timing-only run: fewer epochs by default.
  config.model.trainer.epochs = static_cast<int>(cfg.GetInt("epochs", 40));
  Banner("Table III + Fig 7", "time cost per training step");

  auto runner =
      Unwrap(core::ExperimentRunner::Create(config), "setting up experiment");

  std::vector<std::string> names;
  std::vector<core::MethodResult> results;
  {
    core::GbdtLrOptions options = config.model;
    options.meta_irm.sample_size = 0;
    names.push_back("meta-IRM");
    results.push_back(Unwrap(
        runner->RunMethodWithOptions(core::Method::kMetaIrm, options, false),
        "training meta-IRM"));
  }
  {
    core::GbdtLrOptions options = config.model;
    options.meta_irm.sample_size = 5;
    names.push_back("meta-IRM(5)");
    results.push_back(Unwrap(
        runner->RunMethodWithOptions(core::Method::kMetaIrm, options, false),
        "training meta-IRM(5)"));
  }
  {
    names.push_back("LightMIRM");
    results.push_back(Unwrap(runner->RunMethodWithOptions(
                                 core::Method::kLightMirm, config.model,
                                 false),
                             "training LightMIRM"));
  }

  std::vector<const StepTimer*> timers;
  for (const core::MethodResult& r : results) timers.push_back(&r.step_times);
  std::printf("mean seconds per step call (whole epoch row = total "
              "seconds over %d epochs):\n\n%s\n",
              config.model.trainer.epochs,
              train::FormatStepTimeTable(names, timers).c_str());

  // Figure 7: proportion of each step in the total time spent.
  std::printf("proportion of each step in total epoch time (Fig 7):\n\n");
  std::printf("%-30s", "Step");
  for (const std::string& n : names) std::printf(" %12s", n.c_str());
  std::printf("\n");
  const std::vector<std::vector<train::StepTimeRow>> summaries = [&] {
    std::vector<std::vector<train::StepTimeRow>> out;
    for (const StepTimer* t : timers) {
      out.push_back(train::SummarizeStepTimes(*t));
    }
    return out;
  }();
  for (size_t row = 0; row + 1 < summaries[0].size(); ++row) {
    std::printf("%-30s", summaries[0][row].step.c_str());
    for (const auto& s : summaries) {
      std::printf(" %11.1f%%", 100.0 * s[row].fraction_of_total);
    }
    std::printf("\n");
  }

  const double full_epoch = results[0].step_times.TotalSeconds(
      train::kStepEpoch);
  const double light_epoch = results[2].step_times.TotalSeconds(
      train::kStepEpoch);
  const double full_meta =
      results[0].step_times.MeanSeconds(train::kStepMetaLosses);
  const double light_meta =
      results[2].step_times.MeanSeconds(train::kStepMetaLosses);
  std::printf("\nLightMIRM epoch speedup vs complete meta-IRM    : %.1fx "
              "(paper: ~12x)\n",
              full_epoch / light_epoch);
  std::printf("LightMIRM meta-loss step speedup vs complete    : %.1fx "
              "(paper: ~30x)\n",
              full_meta / light_meta);

  // Threads sweep: re-train LightMIRM at each thread count and record the
  // whole-epoch wall clock. Results are deterministic across thread counts;
  // only the wall clock changes. A count above the host's hardware threads
  // would time oversubscription, not scaling, so it is written as
  // unmeasured. Disable with sweep= (empty).
  const std::vector<int> sweep =
      ParseThreadList(cfg.GetString("sweep", "1,2,4,8"));
  struct SweepPoint {
    int threads;
    bool measured;
    double epoch_seconds;
  };
  std::vector<SweepPoint> sweep_points;
  SweepPoint base{0, false, 0.0};  // the first measured point
  if (!sweep.empty()) {
    std::printf("\nLightMIRM threads sweep (whole-epoch seconds, "
                "hardware threads available: %d):\n\n", HardwareThreads());
    for (int t : sweep) {
      if (t > HardwareThreads()) {
        sweep_points.push_back({t, false, 0.0});
        std::printf("  threads=%-3d unmeasured: %d threads > %d hardware "
                    "threads\n",
                    t, t, HardwareThreads());
        continue;
      }
      core::ExperimentConfig sweep_config = config;
      sweep_config.threads = t;
      sweep_config.model.trainer.threads = t;
      ScopedDefaultThreads guard(t);
      core::MethodResult r = Unwrap(
          runner->RunMethodWithOptions(core::Method::kLightMirm,
                                       sweep_config.model, false),
          "training LightMIRM (threads sweep)");
      const double secs = r.step_times.TotalSeconds(train::kStepEpoch);
      sweep_points.push_back({t, true, secs});
      if (!base.measured) base = sweep_points.back();
      std::printf("  threads=%-3d %8.3fs  (%.2fx vs threads=%d)\n", t, secs,
                  base.epoch_seconds / secs, base.threads);
    }
  }

  // Machine-readable artifact with the per-method step breakdown and the
  // threads sweep.
  std::string json = "{\n";
  json += "  \"bench_version\": 2,\n";
  json += StrFormat("  \"epochs\": %d,\n", config.model.trainer.epochs);
  json += StrFormat("  \"rows_per_year\": %d,\n",
                    config.generator.rows_per_year);
  json += HardwareJsonFields();
  json += "  \"methods\": [\n";
  for (size_t i = 0; i < names.size(); ++i) {
    json += StrFormat("    {\"name\": \"%s\", \"train_seconds\": %.6f, "
                      "\"steps\": [\n",
                      JsonEscape(names[i]).c_str(), results[i].train_seconds);
    const std::vector<train::StepTimeRow>& rows = summaries[i];
    for (size_t r = 0; r < rows.size(); ++r) {
      json += StrFormat(
          "      {\"step\": \"%s\", \"mean_seconds\": %.6f, "
          "\"total_seconds\": %.6f, \"fraction_of_total\": %.6f}%s\n",
          JsonEscape(rows[r].step).c_str(), rows[r].mean_seconds,
          rows[r].total_seconds, rows[r].fraction_of_total,
          r + 1 < rows.size() ? "," : "");
    }
    json += StrFormat("    ]}%s\n", i + 1 < names.size() ? "," : "");
  }
  json += "  ],\n";
  json += StrFormat("  \"lightmirm_epoch_speedup_vs_meta_irm\": %.4f,\n",
                    full_epoch / light_epoch);
  json += StrFormat("  \"lightmirm_meta_loss_speedup_vs_meta_irm\": %.4f,\n",
                    full_meta / light_meta);
  json += "  \"threads_sweep\": [\n";
  for (size_t i = 0; i < sweep_points.size(); ++i) {
    const SweepPoint& p = sweep_points[i];
    const std::string seconds =
        p.measured ? StrFormat("%.6f", p.epoch_seconds) : "null";
    const std::string speedup =
        p.measured ? StrFormat("%.4f", base.epoch_seconds / p.epoch_seconds)
                   : "null";
    const std::string unmeasured =
        p.measured ? std::string("null")
                   : StrFormat("\"%d threads > %d hardware threads\"",
                               p.threads, HardwareThreads());
    json += StrFormat(
        "    {\"threads\": %d, \"epoch_seconds\": %s, "
        "\"speedup_vs_first\": %s, \"unmeasured\": %s}%s\n",
        p.threads, seconds.c_str(), speedup.c_str(), unmeasured.c_str(),
        i + 1 < sweep_points.size() ? "," : "");
  }
  json += "  ]\n}\n";
  const std::string json_path =
      cfg.GetString("json_out", "BENCH_table3.json");
  if (WriteTextFile(json_path, json)) {
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
