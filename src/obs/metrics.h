// Lightweight telemetry primitives: a thread-safe MetricsRegistry holding
// named counters, gauges, fixed-bucket latency histograms and append-only
// series. Metric handles returned by the registry are stable for the
// registry's lifetime, and every update on them is a lock-free atomic
// operation (the registry mutex is only taken to resolve a name the first
// time). Exporters (obs/export.h) snapshot the registry into JSON or
// Prometheus text; obs/trace.h layers RAII nested spans on top.
//
// Naming convention (see DESIGN.md "Observability"): dot-separated
// lowercase-ish segments, `<layer>.<object>.<unit>` — e.g.
// `serve.batch.seconds`, `pool.tasks`, `train.LightMIRM.meta_loss.env_3`.
// SanitizeMetricName maps arbitrary labels into that alphabet.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lightmirm::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-value-wins instantaneous measurement.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts samples v <= bounds[i] (first
/// matching bound); samples above the last bound land in an overflow
/// bucket. Record is an atomic increment; quantiles interpolate linearly
/// inside the winning bucket (the overflow bucket clamps to the last
/// bound, so p99 of a saturated histogram reads as "at least bounds
/// .back()").
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> bounds);

  void Record(double value);

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const;
  /// q in [0, 1]; 0 when empty.
  double Quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; the last entry is the overflow bucket.
  std::vector<uint64_t> BucketCounts() const;

  /// Adds another histogram's samples into this one. The bucket layouts
  /// must match (same bounds).
  void MergeFrom(const Histogram& other);

  void Reset();

  /// Log-spaced latency bounds from 1µs to 10s ({1, 2.5, 5} per decade),
  /// the default for every `.seconds` histogram in the library.
  static const std::vector<double>& DefaultLatencyBounds();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Append-only sequence of doubles (per-epoch trajectories: meta-losses,
/// penalty terms). Appends take a mutex — callers record once per epoch,
/// not on per-row hot paths.
class Series {
 public:
  void Append(double v);
  std::vector<double> Values() const;
  size_t Size() const;
  void Reset();

 private:
  mutable std::mutex mu_;
  std::vector<double> values_;
};

/// Maps an arbitrary label into the metric-name alphabet [A-Za-z0-9_.]:
/// every other character becomes '_', runs collapse, and leading/trailing
/// separators are trimmed ("meta-IRM(5)" -> "meta_IRM_5").
std::string SanitizeMetricName(std::string_view name);

/// Label set of one labeled metric: (name, value) pairs. The registry
/// canonicalizes the order (sorted by label name), so callers may pass
/// labels in any order and still address the same cell. Label names
/// should match the Prometheus grammar [a-zA-Z_][a-zA-Z0-9_]* ("le" is
/// reserved for histogram buckets); the exporters skip cells whose names
/// do not.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/// Snapshot view of one labeled metric cell: the family name (shared by
/// every cell of the family), its canonicalized labels, and the handle.
template <typename Metric>
struct LabeledMetric {
  std::string family;
  MetricLabels labels;
  const Metric* metric = nullptr;
};

/// Named metric store. Get* registers on first use and afterwards returns
/// the same pointer, which stays valid (and keeps its identity across
/// Reset) for the registry's lifetime — callers may cache handles.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` applies only on first registration; nullptr means
  /// Histogram::DefaultLatencyBounds().
  Histogram* GetHistogram(const std::string& name,
                          const std::vector<double>* bounds = nullptr);
  Series* GetSeries(const std::string& name);

  /// Labeled families: one metric cell per (family, label-set), e.g.
  /// `service.shed.requests{shard="3"}`. Cells follow the same contract
  /// as the unlabeled getters (first call registers, handles are stable,
  /// updates are lock-free); labels are canonicalized by sorting on the
  /// label name, so `{a=1,b=2}` and `{b=2,a=1}` address the same cell.
  /// Labeled and unlabeled metrics of the same name are distinct.
  Counter* GetCounter(const std::string& family, const MetricLabels& labels);
  Gauge* GetGauge(const std::string& family, const MetricLabels& labels);
  Histogram* GetHistogram(const std::string& family,
                          const MetricLabels& labels,
                          const std::vector<double>* bounds = nullptr);

  /// Name-sorted handle snapshots for the exporters.
  std::vector<std::pair<std::string, const Counter*>> Counters() const;
  std::vector<std::pair<std::string, const Gauge*>> Gauges() const;
  std::vector<std::pair<std::string, const Histogram*>> Histograms() const;
  std::vector<std::pair<std::string, const Series*>> AllSeries() const;

  /// Labeled snapshots, sorted by family then canonical label key.
  std::vector<LabeledMetric<Counter>> LabeledCounters() const;
  std::vector<LabeledMetric<Gauge>> LabeledGauges() const;
  std::vector<LabeledMetric<Histogram>> LabeledHistograms() const;

  /// Zeroes every metric. Registrations (and handle pointers) survive.
  void Reset();

  /// The process-wide registry every built-in instrumentation site records
  /// into. Never destroyed, so cached handles outlive static teardown.
  static MetricsRegistry* Global();

 private:
  template <typename Metric>
  struct LabeledCell {
    MetricLabels labels;  ///< canonical (name-sorted) order
    std::unique_ptr<Metric> metric;
  };
  /// family -> canonical label key -> cell.
  template <typename Metric>
  using LabeledFamilies =
      std::map<std::string, std::map<std::string, LabeledCell<Metric>>>;

  template <typename Metric>
  std::vector<LabeledMetric<Metric>> SnapshotLabeled(
      const LabeledFamilies<Metric>& families) const;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Series>> series_;
  LabeledFamilies<Counter> labeled_counters_;
  LabeledFamilies<Gauge> labeled_gauges_;
  LabeledFamilies<Histogram> labeled_histograms_;
};

/// Process-wide switch for the built-in instrumentation sites (thread
/// pool, loan generator, scoring sessions, trainer spans, service), each
/// read per call. Defaults to enabled; bench_overhead flips it.
bool TelemetryEnabled();
void SetTelemetryEnabled(bool enabled);

}  // namespace lightmirm::obs
