// Serving throughput, v4: legacy inference against the two builds of the
// one scoring kernel.
//
//   legacy  — encode-then-dot inference (materialize the §III-C multi-hot
//             FeatureMatrix, then sparse-dot the LR weights)
//   scalar  — ScoringSession with the kernel built for the baseline ISA
//   avx2    — ScoringSession with the same kernel built with -mavx2, when
//             the CPU supports it
//
// Sweeps thread counts, reports rows/sec per leg, measures p50/p95/p99
// per-batch latency, derives the 8-thread scaling of the fused
// batch-scoring dispatch, verifies all legs are bit-identical, and writes
// BENCH_serving.json (bench_version 4, with hardware metadata). A thread
// count above the host's hardware threads is not timed: its sweep entry
// is written as unmeasured (null rows/sec plus the reason), since such a
// leg would measure oversubscription, not the kernel.
//
// Gates (CI):
//   * pass baseline=BENCH_serving.json to compare single-thread rows/sec
//     per kernel tier against the committed artifact (avx2 against
//     `avx2_single_thread_rows_per_sec`, or a v3 artifact's
//     `simd_single_thread_rows_per_sec`; scalar against
//     `scalar_single_thread_rows_per_sec`); the bench exits 2 when a tier
//     regresses more than max_regress_pct (default 10). The 8-thread
//     rows/sec is gated the same way when both runs measured it.
//   * when the 8-thread leg is measured, it must reach min_scaling_8t x
//     the single-thread rows/sec (default 3).
#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/gbdt_lr_model.h"
#include "data/loan_generator.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/simd_dispatch.h"

using namespace lightmirm;
using namespace lightmirm::bench;

namespace {

struct PathTiming {
  double rows_per_sec = 0.0;
  double best_seconds = 0.0;
};

// A JSON number, or null for a leg that was not measured.
std::string JsonRate(bool measured, double value) {
  return measured ? StrFormat("%.1f", value) : std::string("null");
}

// False (the bench then exits 2) when `current` is more than
// max_regress_pct below the baseline's figure: the first of `keys` present
// in the baseline. A gate whose figure is absent or null there is skipped.
bool PassesBaseline(const std::string& baseline, const char* what,
                    std::initializer_list<const char*> keys, double current,
                    double max_regress_pct) {
  double base = std::numeric_limits<double>::quiet_NaN();
  for (const char* key : keys) {
    base = ExtractJsonNumber(baseline, key);
    if (!std::isnan(base)) break;
  }
  if (std::isnan(base) || base <= 0.0) {
    std::printf("regression gate (%s): baseline has no figure; skipped\n",
                what);
    return true;
  }
  if (current < base * (1.0 - max_regress_pct / 100.0)) {
    std::fprintf(stderr,
                 "FATAL: %s throughput regressed: %.0f rows/s vs baseline "
                 "%.0f (-%.1f%% > %.1f%% allowed)\n",
                 what, current, base, (1.0 - current / base) * 100.0,
                 max_regress_pct);
    return false;
  }
  std::printf("regression gate (%s): %.0f rows/s vs baseline %.0f "
              "(%+.1f%%) — OK\n",
              what, current, base, (current / base - 1.0) * 100.0);
  return true;
}

template <typename Fn>
PathTiming Measure(size_t rows, int warmup, int iters, const Fn& fn) {
  for (int i = 0; i < warmup; ++i) fn();
  PathTiming timing;
  timing.best_seconds = 1e300;
  for (int i = 0; i < iters; ++i) {
    WallTimer watch;
    fn();
    timing.best_seconds = std::min(timing.best_seconds, watch.Seconds());
  }
  timing.rows_per_sec = static_cast<double>(rows) / timing.best_seconds;
  return timing;
}

struct LatencyStats {
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
};

double PercentileMs(std::vector<double>* seconds, double q) {
  std::sort(seconds->begin(), seconds->end());
  const size_t n = seconds->size();
  if (n == 0) return 0.0;
  const size_t idx = std::min(
      n - 1, static_cast<size_t>(q * static_cast<double>(n - 1) + 0.5));
  return (*seconds)[idx] * 1e3;
}

/// Times `score(batch)` for every batch, `iters` passes over all batches,
/// and reports the p50/p95 of the pooled per-batch wall times.
template <typename Fn>
LatencyStats MeasureLatency(size_t num_batches, int warmup, int iters,
                            const Fn& score) {
  for (int i = 0; i < warmup; ++i) {
    for (size_t b = 0; b < num_batches; ++b) score(b);
  }
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(iters) * num_batches);
  for (int i = 0; i < iters; ++i) {
    for (size_t b = 0; b < num_batches; ++b) {
      WallTimer watch;
      score(b);
      samples.push_back(watch.Seconds());
    }
  }
  LatencyStats stats;
  stats.p50_ms = PercentileMs(&samples, 0.50);
  stats.p95_ms = PercentileMs(&samples, 0.95);
  stats.p99_ms = PercentileMs(&samples, 0.99);
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const ConfigMap cfg = ParseArgs(argc, argv);
  Banner("Serving throughput v4",
         "legacy encode-then-dot vs the scoring kernel's scalar and avx2 "
         "builds");

  data::LoanGeneratorOptions gen;
  gen.rows_per_year = static_cast<int>(cfg.GetInt("rows_per_year", 4000));
  gen.seed = static_cast<uint64_t>(cfg.GetInt("seed", 42));
  core::GbdtLrOptions options;
  options.booster.num_trees = static_cast<int>(
      cfg.GetInt("trees", options.booster.num_trees));
  options.trainer.epochs = static_cast<int>(cfg.GetInt("epochs", 20));
  const int warmup = static_cast<int>(cfg.GetInt("warmup", 2));
  const int iters = static_cast<int>(cfg.GetInt("iters", 15));
  const size_t batch_rows =
      static_cast<size_t>(cfg.GetInt("batch_rows", 4096));

  const bool have_avx2 =
      serve::DetectedSimdLevel() == serve::SimdLevel::kAvx2;
  std::printf("cpu: %s\n", serve::CpuModelName().c_str());
  std::printf("simd: %s (detected), hardware threads: %d\n\n",
              serve::SimdLevelName(serve::DetectedSimdLevel()),
              HardwareThreads());

  const data::Dataset dataset =
      Unwrap(data::LoanGenerator(gen).Generate(), "generating dataset");
  std::printf("dataset: %zu rows x %zu features, %d trees\n",
              dataset.NumRows(), dataset.NumFeatures(),
              options.booster.num_trees);

  const core::GbdtLrModel model = Unwrap(
      core::GbdtLrModel::Train(dataset, core::Method::kErm, options),
      "training model");
  const auto session = model.scoring_session();
  const serve::QuantizedForest& forest = session->forest();
  std::printf("forest: %zu nodes, %zu LR columns\n\n", forest.num_nodes(),
              forest.num_columns());

  // One-time equivalence check across every leg before timing anything.
  const std::vector<double> legacy_scores = [&] {
    const linear::FeatureMatrix encoded =
        Unwrap(model.EncodeFeatures(dataset), "encoding dataset");
    return model.predictor().Predict(encoded, &dataset.envs());
  }();
  std::vector<serve::SimdLevel> tiers = {serve::SimdLevel::kScalar};
  if (have_avx2) tiers.push_back(serve::SimdLevel::kAvx2);
  for (const serve::SimdLevel tier : tiers) {
    serve::ScopedSimdLevel pin(tier);
    if (Unwrap(session->Score(dataset.features(), &dataset.envs()),
               "scoring") != legacy_scores) {
      std::fprintf(stderr, "FATAL: %s scores diverge from legacy\n",
                   serve::SimdLevelName(tier));
      return 1;
    }
  }
  std::printf("all legs bit-identical to legacy: yes\n\n");

  struct SweepPoint {
    int threads;
    bool measured;
    PathTiming legacy;
    PathTiming scalar;
    PathTiming avx2;
  };
  const std::vector<int> sweep =
      ParseThreadList(cfg.GetString("sweep", "1,2,4,8"));
  std::vector<SweepPoint> points;
  std::printf("%-8s %14s %14s %14s %12s\n", "threads", "legacy r/s",
              "scalar r/s", "avx2 r/s", "avx2/scalar");
  std::vector<double> out;
  for (int t : sweep) {
    SweepPoint point{};
    point.threads = t;
    point.measured = t <= HardwareThreads();
    if (!point.measured) {
      points.push_back(point);
      std::printf("%-8d unmeasured: %d threads > %d hardware threads\n", t,
                  t, HardwareThreads());
      continue;
    }
    ScopedDefaultThreads guard(t);
    point.legacy = Measure(dataset.NumRows(), warmup, iters, [&] {
      const linear::FeatureMatrix encoded = *model.EncodeFeatures(dataset);
      out = model.predictor().Predict(encoded, &dataset.envs());
    });
    for (const serve::SimdLevel tier : tiers) {
      serve::ScopedSimdLevel pin(tier);
      (tier == serve::SimdLevel::kAvx2 ? point.avx2 : point.scalar) =
          Measure(dataset.NumRows(), warmup, iters, [&] {
            Check(session->Score(dataset.features(), &dataset.envs(), &out),
                  "scoring");
          });
    }
    points.push_back(point);
    std::printf("%-8d %14.0f %14.0f %14.0f %11.2fx\n", t,
                point.legacy.rows_per_sec, point.scalar.rows_per_sec,
                point.avx2.rows_per_sec,
                have_avx2 ? point.avx2.rows_per_sec /
                                point.scalar.rows_per_sec
                          : 0.0);
  }

  // Per-batch latency at production batch size, single-threaded: the tail
  // a serving replica actually exposes.
  std::vector<Matrix> batches;
  std::vector<std::vector<int>> batch_envs;
  for (size_t begin = 0; begin < dataset.NumRows(); begin += batch_rows) {
    const size_t n = std::min(batch_rows, dataset.NumRows() - begin);
    Matrix slice(n, dataset.NumFeatures());
    std::vector<int> envs(n);
    for (size_t r = 0; r < n; ++r) {
      const double* src = dataset.features().Row(begin + r);
      std::copy(src, src + dataset.NumFeatures(), slice.Row(r));
      envs[r] = dataset.envs()[begin + r];
    }
    batches.push_back(std::move(slice));
    batch_envs.push_back(std::move(envs));
  }
  LatencyStats scalar_latency;
  LatencyStats avx2_latency;
  {
    ScopedDefaultThreads guard(1);
    for (const serve::SimdLevel tier : tiers) {
      serve::ScopedSimdLevel pin(tier);
      (tier == serve::SimdLevel::kAvx2 ? avx2_latency : scalar_latency) =
          MeasureLatency(batches.size(), warmup, iters, [&](size_t b) {
            Check(session->Score(batches[b], &batch_envs[b], &out),
                  "latency scoring");
          });
    }
  }
  std::printf("\nper-batch latency (%zu rows, 1 thread): "
              "scalar p50 %.3f ms p95 %.3f ms p99 %.3f ms | "
              "avx2 p50 %.3f ms p95 %.3f ms p99 %.3f ms\n",
              batch_rows, scalar_latency.p50_ms, scalar_latency.p95_ms,
              scalar_latency.p99_ms, avx2_latency.p50_ms,
              avx2_latency.p95_ms, avx2_latency.p99_ms);

  const SweepPoint* one_t = nullptr;
  const SweepPoint* eight_t = nullptr;
  for (const SweepPoint& point : points) {
    if (point.threads == 1 && point.measured) one_t = &point;
    if (point.threads == 8 && point.measured) eight_t = &point;
  }
  const double scalar_1t = one_t == nullptr ? 0.0 : one_t->scalar.rows_per_sec;
  const double avx2_1t = one_t == nullptr ? 0.0 : one_t->avx2.rows_per_sec;
  const double scalar_vs_legacy =
      one_t == nullptr ? 0.0 : scalar_1t / one_t->legacy.rows_per_sec;
  const double avx2_vs_scalar =
      (one_t == nullptr || !have_avx2) ? 0.0 : avx2_1t / scalar_1t;
  std::printf("\nsingle-thread: scalar %.2fx over legacy, avx2 %.2fx over "
              "scalar\n",
              scalar_vs_legacy, avx2_vs_scalar);

  // 8-thread scaling of the fused batch-scoring dispatch, carried by the
  // best tier available; only defined when both legs were measured.
  const auto best_rows = [&](const SweepPoint& p) {
    return have_avx2 ? p.avx2.rows_per_sec : p.scalar.rows_per_sec;
  };
  const bool have_scaling =
      one_t != nullptr && eight_t != nullptr && best_rows(*one_t) > 0.0;
  const double best_8t = eight_t == nullptr ? 0.0 : best_rows(*eight_t);
  const double scaling_speedup_8t =
      have_scaling ? best_8t / best_rows(*one_t) : 0.0;
  if (have_scaling) {
    std::printf("8-thread scaling: %.2fx over 1 thread (efficiency %.0f%%)\n",
                scaling_speedup_8t, scaling_speedup_8t / 8.0 * 100.0);
  } else {
    std::printf("8-thread scaling: unmeasured (%d hardware threads)\n",
                HardwareThreads());
  }

  std::string json = "{\n";
  json += "  \"bench_version\": 4,\n";
  json += StrFormat("  \"rows\": %zu,\n", dataset.NumRows());
  json += StrFormat("  \"features\": %zu,\n", dataset.NumFeatures());
  json += StrFormat("  \"trees\": %d,\n", options.booster.num_trees);
  json += StrFormat("  \"compiled_nodes\": %zu,\n", forest.num_nodes());
  json += StrFormat("  \"lr_columns\": %zu,\n", forest.num_columns());
  json += HardwareJsonFields();
  json += StrFormat("  \"avx2_available\": %s,\n",
                    have_avx2 ? "true" : "false");
  json += StrFormat("  \"iters\": %d,\n", iters);
  json += "  \"bit_identical\": true,\n";
  json += "  \"sweep\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    const std::string unmeasured =
        p.measured ? std::string("null")
                   : StrFormat("\"%d threads > %d hardware threads\"",
                               p.threads, HardwareThreads());
    json += StrFormat(
        "    {\"threads\": %d, \"legacy_rows_per_sec\": %s, "
        "\"scalar_rows_per_sec\": %s, \"avx2_rows_per_sec\": %s, "
        "\"unmeasured\": %s}%s\n",
        p.threads, JsonRate(p.measured, p.legacy.rows_per_sec).c_str(),
        JsonRate(p.measured, p.scalar.rows_per_sec).c_str(),
        JsonRate(p.measured && have_avx2, p.avx2.rows_per_sec).c_str(),
        unmeasured.c_str(), i + 1 < points.size() ? "," : "");
  }
  json += "  ],\n";
  json += StrFormat("  \"latency_batch_rows\": %zu,\n", batch_rows);
  json += StrFormat(
      "  \"latency_ms\": {\"scalar_p50\": %.4f, \"scalar_p95\": %.4f, "
      "\"scalar_p99\": %.4f, \"avx2_p50\": %.4f, \"avx2_p95\": %.4f, "
      "\"avx2_p99\": %.4f},\n",
      scalar_latency.p50_ms, scalar_latency.p95_ms, scalar_latency.p99_ms,
      avx2_latency.p50_ms, avx2_latency.p95_ms, avx2_latency.p99_ms);
  json += StrFormat("  \"single_thread_scalar_vs_legacy\": %.4f,\n",
                    scalar_vs_legacy);
  json += StrFormat("  \"single_thread_avx2_vs_scalar\": %.4f,\n",
                    avx2_vs_scalar);
  json += StrFormat("  \"scaling_speedup_8t\": %s,\n",
                    have_scaling ? StrFormat("%.4f", scaling_speedup_8t).c_str()
                                 : "null");
  json += StrFormat("  \"avx2_8t_rows_per_sec\": %s,\n",
                    JsonRate(have_scaling && have_avx2, best_8t).c_str());
  json += StrFormat("  \"scalar_single_thread_rows_per_sec\": %s,\n",
                    JsonRate(one_t != nullptr, scalar_1t).c_str());
  json += StrFormat("  \"avx2_single_thread_rows_per_sec\": %s\n",
                    JsonRate(one_t != nullptr && have_avx2, avx2_1t).c_str());
  json += "}\n";
  const std::string json_path =
      cfg.GetString("json_out", "BENCH_serving.json");
  if (WriteTextFile(json_path, json)) {
    std::printf("wrote %s\n", json_path.c_str());
  }
  // telemetry_out=serve.json dumps the serve.* / pool.* histograms the
  // sweep populated (batch latency quantiles, rows scored).
  const std::string telemetry_out = cfg.GetString("telemetry_out", "");
  if (!telemetry_out.empty()) {
    Check(obs::WriteTelemetryFile(*obs::MetricsRegistry::Global(),
                                  telemetry_out),
          "writing telemetry");
    std::printf("wrote %s\n", telemetry_out.c_str());
  }

  // Scaling gate: the multi-thread dispatch must actually scale. Only
  // defined when the 8-thread leg had 8 hardware threads to land on.
  const double min_scaling_8t = cfg.GetDouble("min_scaling_8t", 3.0);
  if (have_scaling) {
    if (scaling_speedup_8t < min_scaling_8t) {
      std::fprintf(stderr,
                   "FATAL: 8-thread scaling %.2fx below the %.1fx gate\n",
                   scaling_speedup_8t, min_scaling_8t);
      return 2;
    }
    std::printf("scaling gate: %.2fx >= %.1fx — OK\n", scaling_speedup_8t,
                min_scaling_8t);
  }

  // CI regression gate: compare against a committed baseline artifact.
  const std::string baseline_path = cfg.GetString("baseline", "");
  if (!baseline_path.empty() && one_t != nullptr) {
    const double max_regress_pct = cfg.GetDouble("max_regress_pct", 10.0);
    const std::string baseline = ReadTextFileOrEmpty(baseline_path);
    if (baseline.empty()) {
      std::fprintf(stderr, "FATAL: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    bool pass = PassesBaseline(baseline, "scalar",
                               {"scalar_single_thread_rows_per_sec"},
                               scalar_1t, max_regress_pct);
    if (have_avx2) {
      pass &= PassesBaseline(baseline, "avx2",
                             {"avx2_single_thread_rows_per_sec",
                              "simd_single_thread_rows_per_sec"},
                             avx2_1t, max_regress_pct);
    }
    if (have_scaling && have_avx2) {
      pass &= PassesBaseline(baseline, "avx2 8-thread",
                             {"avx2_8t_rows_per_sec"}, best_8t,
                             max_regress_pct);
    }
    if (!pass) return 2;
  }
  return 0;
}
