// Shared plumbing for the table/figure reproduction harnesses. Every bench
// accepts "key=value" CLI overrides so workload scale can be tuned without
// recompiling, e.g. `bench_table1_main rows_per_year=20000 seeds=5`.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/experiment.h"
#include "core/report.h"
#include "serve/service/dispatcher.h"
#include "serve/simd_dispatch.h"

namespace lightmirm::bench {

/// Parses CLI overrides; exits with a message on malformed input.
inline ConfigMap ParseArgs(int argc, char** argv) {
  auto cfg = ConfigMap::FromArgs(argc, argv);
  if (!cfg.ok()) {
    std::fprintf(stderr, "%s\n", cfg.status().ToString().c_str());
    std::exit(1);
  }
  return *cfg;
}

/// Builds the default experiment configuration used by the paper-shaped
/// benches, honoring the common overrides (rows_per_year, seed, epochs,
/// trees, lr, threads, telemetry_out).
inline core::ExperimentConfig MakeConfig(const ConfigMap& cfg) {
  core::ExperimentConfig config;
  config.generator.rows_per_year =
      static_cast<int>(cfg.GetInt("rows_per_year", 8000));
  config.generator.seed = static_cast<uint64_t>(cfg.GetInt("seed", 42));
  config.model.booster.num_trees =
      static_cast<int>(cfg.GetInt("trees", config.model.booster.num_trees));
  config.model.trainer.epochs = static_cast<int>(cfg.GetInt("epochs", 300));
  config.model.trainer.optimizer.learning_rate = cfg.GetDouble(
      "lr", config.model.trainer.optimizer.learning_rate);
  config.threads = static_cast<int>(cfg.GetInt("threads", 0));
  config.model.trainer.threads = config.threads;
  // telemetry_out=run.json dumps the global metrics registry (spans,
  // trajectories, pool/serving histograms) after every method run;
  // a .prom suffix switches to Prometheus text format.
  config.telemetry_out = cfg.GetString("telemetry_out", "");
  // trace_out=run.trace.json records every span as a Chrome trace-event
  // file (chrome://tracing / Perfetto).
  config.trace_out = cfg.GetString("trace_out", "");
  return config;
}

/// Parses a "1,2,4"-style comma-separated thread-count list.
inline std::vector<int> ParseThreadList(const std::string& spec) {
  std::vector<int> out;
  std::stringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ',')) {
    const int v = std::atoi(token.c_str());
    if (v > 0) out.push_back(v);
  }
  return out;
}

/// Escapes a string for embedding inside a JSON string literal.
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// JSON fields (indented two spaces, trailing comma) recording the machine
/// a serving/monitor bench artifact was measured on: the real hardware
/// concurrency, the CPU model string, and the SIMD level the serving
/// dispatcher selected. Every serving/monitor artifact embeds these so a
/// number can always be traced back to its hardware.
inline std::string HardwareJsonFields() {
  return StrFormat(
      "  \"hardware_threads\": %d,\n"
      "  \"cpu_model\": \"%s\",\n"
      "  \"simd_level\": \"%s\",\n",
      HardwareThreads(), JsonEscape(serve::CpuModelName()).c_str(),
      serve::SimdLevelName(serve::ActiveSimdLevel()));
}

/// Reads a whole text file; empty string when missing/unreadable.
inline std::string ReadTextFileOrEmpty(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return "";
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  return text;
}

/// Extracts the first number following `"key":` in a JSON text; NaN when
/// the key is absent. Enough JSON for the flat bench artifacts.
inline double ExtractJsonNumber(const std::string& text,
                                const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = text.find(needle);
  if (at == std::string::npos) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return std::strtod(text.c_str() + at + needle.size(), nullptr);
}

/// Writes `text` to `path`; prints a warning (and returns false) on failure
/// so a read-only working directory never sinks a bench run.
inline bool WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

/// Exits with a message when a Result/Status is not OK.
template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", what,
                 result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).value();
}

inline void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

/// A service request for `rows` of `set`: loan id `id_base + row`, the
/// row's features and province, and its label when `with_labels` is set.
inline serve::ScoreRequest RowsRequest(const data::Dataset& set,
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

/// Prints a bench banner with the paper artifact it reproduces.
inline void Banner(const char* artifact, const char* description) {
  std::printf("=== %s — %s ===\n\n", artifact, description);
}

}  // namespace lightmirm::bench
