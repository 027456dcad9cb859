// Shared plumbing of the benchmark's workload runner: run options, the
// result report (named metrics with units, correctness verdict,
// provenance), sample statistics, the in-memory span recorder of traced
// runs, and score hashing for the bit-identity checks.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

/// Version of the benchmark's inputs and metric definitions. Bump it when
/// a change makes results incomparable with earlier ones.
inline constexpr int kBenchmarkVersion = 1;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Full result JSON (every metric measured, provenance, failures).
  std::string result_out;
  /// Chrome trace-event file of the recorded spans (traced runs only).
  std::string trace_out;
};

/// Steady-clock nanoseconds since the first call in this process.
int64_t NowNs();
/// Sleeps until NowNs() reaches `t` (returns at once when it has).
void SleepUntilNs(int64_t t);
inline double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
inline double Millis(int64_t ns) { return static_cast<double>(ns) * 1e-6; }
inline double Micros(int64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// Nearest-rank quantile (q in [0, 1]) of `values`; NaN when empty.
double Quantile(std::vector<double> values, double q);
/// Median of `values` (mean of the middle two when the count is even);
/// NaN when empty.
double Median(std::vector<double> values);

/// FNV-1a over the bit patterns of `n` scores: two score vectors hash
/// equal only if they are bit-identical (up to 64-bit collisions).
uint64_t HashScores(const double* scores, size_t n);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

struct MetricValue {
  double value = 0.0;
  std::string unit;
  /// Samples the figure summarizes (0 = a single measurement).
  uint64_t samples = 0;
};

/// Everything one run reports. `end_to_end` holds what a user of the
/// system sees (measured in every run); `per_layer` is filled by traced
/// runs only. perfbench/run.py selects the metrics BENCHMARK.json
/// declares from these maps.
class Report {
 public:
  void EndToEnd(const std::string& name, double value,
                const std::string& unit, uint64_t samples = 0);
  void Layer(const std::string& name, double value, const std::string& unit,
             uint64_t samples = 0);
  /// Free-form context (JSON value text) recorded under `info`.
  void Info(const std::string& key, const std::string& json_value);
  /// Records a correctness failure; the run reports correct = false.
  void Fail(const std::string& why);
  /// Records that a workload generator could not keep its schedule: the
  /// run is invalid (not slow) and reports correct = false.
  void Invalidate(const std::string& why);

  bool correct() const { return failures_.empty() && valid_; }
  bool valid() const { return valid_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// The full result document (see perfbench/README.md).
  std::string ToJson(const RunOptions& options) const;

 private:
  std::map<std::string, MetricValue> end_to_end_;
  std::map<std::string, MetricValue> per_layer_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failures_;
  bool valid_ = true;
};

/// One recorded span: a named interval, its id, and the span that caused
/// it (0 = a root). Spans of one request share the request's id as
/// `request`.
struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  uint32_t thread = 0;
};

/// In-memory span store of a traced run, written once when the run ends.
/// Disabled recorders drop everything and cost one branch per span.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }
  uint64_t NextId();
  void Add(SpanRecord span);
  /// Durations (ms) of every span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Writes the spans as Chrome trace events; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;
  size_t size() const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 0;  ///< mu_
  std::vector<SpanRecord> spans_;  ///< mu_
};

/// RAII span around one call into a layer. Spans opened on one thread
/// nest: a span's parent is the innermost span still open on its thread.
class Span {
 public:
  Span(SpanRecorder* recorder, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  uint64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  const char* name_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t start_ns_ = 0;
};

/// Small dense thread id for span records.
uint32_t ThreadTag();

/// Names what the run is doing now (for the watchdog's report) and counts
/// as progress.
void SetStage(const char* stage);

/// Exit code of a run the watchdog stopped.
inline constexpr int kHungExitCode = 3;
/// Exit code of a run that completed but was invalidated (its result is
/// written, with correct = false).
inline constexpr int kInvalidExitCode = 4;

/// Ends the process with kHungExitCode, naming the current stage, when no
/// SetStage call has been made for `limit_s` seconds. A run that stops
/// making progress (a deadlocked pool never returns) then fails fast and
/// recognisably instead of running into the caller's timeout.
class Watchdog {
 public:
  explicit Watchdog(double limit_s);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;  ///< mu_
  std::thread thread_;  ///< last: started after the state it reads
};

}  // namespace perfbench
