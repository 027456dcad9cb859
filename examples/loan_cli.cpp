// Command-line workflow over CSV files: generate a demo dataset, train a
// pipeline, persist it, and score new applications — the full deployment
// loop of the library.
//
//   example_loan_cli mode=generate out=loans.csv rows_per_year=4000
//   example_loan_cli mode=train data=loans.csv model=model.txt
//       method=light_mirm epochs=200 threads=4
//   example_loan_cli mode=score model=model.txt data=loans.csv
//   example_loan_cli mode=evaluate model=model.txt data=loans.csv
//
// All modes accept threads=N (0 = all hardware threads, 1 = serial); the
// outputs are bit-identical at every thread count.
#include <cstdio>

#include "common/config.h"
#include "common/thread_pool.h"
#include "core/model_io.h"
#include "data/csv.h"
#include "data/env_split.h"
#include "data/loan_generator.h"
#include "metrics/env_report.h"

using namespace lightmirm;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Generate(const ConfigMap& cfg) {
  data::LoanGeneratorOptions options;
  options.rows_per_year = static_cast<int>(cfg.GetInt("rows_per_year", 4000));
  options.seed = static_cast<uint64_t>(cfg.GetInt("seed", 42));
  const std::string out = cfg.GetString("out", "loans.csv");
  auto dataset = data::LoanGenerator(options).Generate();
  if (!dataset.ok()) return Fail(dataset.status());
  const Status st = data::WriteCsv(*dataset, out);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %zu rows x %zu features to %s\n", dataset->NumRows(),
              dataset->NumFeatures(), out.c_str());
  return 0;
}

int Train(const ConfigMap& cfg) {
  auto dataset = data::ReadCsv(cfg.GetString("data", "loans.csv"));
  if (!dataset.ok()) return Fail(dataset.status());
  auto method = core::MethodFromName(cfg.GetString("method", "light_mirm"));
  if (!method.ok()) return Fail(method.status());

  // Train on the pre-test years only when the file spans 2020.
  data::Dataset train = std::move(*dataset);
  bool split_off_2020 = false;
  for (int y : train.years()) {
    if (y >= 2020) {
      split_off_2020 = true;
      break;
    }
  }
  if (split_off_2020) {
    auto split = data::TemporalSplit(train, 2020);
    if (!split.ok()) return Fail(split.status());
    train = std::move(split->train);
    std::printf("training on %zu pre-2020 rows\n", train.NumRows());
  }

  core::GbdtLrOptions options;
  options.trainer.epochs = static_cast<int>(cfg.GetInt("epochs", 200));
  options.booster.num_trees =
      static_cast<int>(cfg.GetInt("trees", options.booster.num_trees));
  auto model = core::GbdtLrModel::Train(train, *method, options);
  if (!model.ok()) return Fail(model.status());
  const std::string path = cfg.GetString("model", "model.txt");
  const Status st = core::SaveModelToFile(*model, path);
  if (!st.ok()) return Fail(st);
  std::printf("trained %s and saved the pipeline to %s\n",
              core::MethodName(*method).c_str(), path.c_str());
  return 0;
}

int Score(const ConfigMap& cfg, bool evaluate) {
  auto model = core::LoadModelFromFile(cfg.GetString("model", "model.txt"));
  if (!model.ok()) return Fail(model.status());
  auto dataset = data::ReadCsv(cfg.GetString("data", "loans.csv"));
  if (!dataset.ok()) return Fail(dataset.status());
  auto scores = model->Predict(*dataset);
  if (!scores.ok()) return Fail(scores.status());
  if (!evaluate) {
    const size_t limit =
        static_cast<size_t>(cfg.GetInt("limit", 20));
    std::printf("row,env,score\n");
    for (size_t i = 0; i < std::min(limit, scores->size()); ++i) {
      std::printf("%zu,%s,%.6f\n", i,
                  dataset->EnvName(dataset->envs()[i]).c_str(),
                  (*scores)[i]);
    }
    std::printf("... (%zu rows scored)\n", scores->size());
    return 0;
  }
  // Evaluate out-of-time (2020) when the file spans it, so the numbers
  // reflect deployment rather than training fit.
  data::Dataset eval_data = std::move(*dataset);
  std::vector<double> eval_scores = std::move(*scores);
  bool has_2020 = false;
  for (int y : eval_data.years()) {
    if (y >= 2020) {
      has_2020 = true;
      break;
    }
  }
  if (has_2020) {
    std::vector<size_t> rows;
    for (size_t i = 0; i < eval_data.NumRows(); ++i) {
      if (eval_data.years()[i] >= 2020) rows.push_back(i);
    }
    std::vector<double> subset_scores;
    for (size_t r : rows) subset_scores.push_back(eval_scores[r]);
    auto subset = eval_data.Select(rows);
    if (!subset.ok()) return Fail(subset.status());
    eval_data = std::move(*subset);
    eval_scores = std::move(subset_scores);
    std::printf("evaluating on the %zu rows of the 2020 test year\n",
                eval_data.NumRows());
  }
  auto report = metrics::EvaluatePerEnv(eval_data, eval_scores, 50);
  if (!report.ok()) return Fail(report.status());
  std::printf("mKS %.4f | wKS %.4f | mAUC %.4f | wAUC %.4f over %zu "
              "provinces\n",
              report->mean_ks, report->worst_ks, report->mean_auc,
              report->worst_auc, report->per_env.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto cfg = ConfigMap::FromArgs(argc, argv);
  if (!cfg.ok()) return Fail(cfg.status());
  SetDefaultThreads(static_cast<int>(cfg->GetInt("threads", 0)));
  const std::string mode = cfg->GetString("mode", "demo");
  if (mode == "generate") return Generate(*cfg);
  if (mode == "train") return Train(*cfg);
  if (mode == "score") return Score(*cfg, false);
  if (mode == "evaluate") return Score(*cfg, true);
  if (mode == "demo") {
    // Self-contained end-to-end demo in a temp directory.
    ConfigMap demo = *cfg;
    demo.Set("out", "/tmp/lightmirm_demo.csv");
    demo.Set("data", "/tmp/lightmirm_demo.csv");
    demo.Set("model", "/tmp/lightmirm_demo_model.txt");
    demo.Set("rows_per_year", demo.GetString("rows_per_year", "2000"));
    if (int rc = Generate(demo)) return rc;
    if (int rc = Train(demo)) return rc;
    return Score(demo, true);
  }
  std::fprintf(stderr,
               "usage: mode=generate|train|score|evaluate|demo ...\n");
  return 1;
}
