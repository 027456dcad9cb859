#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <thread>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "serve/simd_dispatch.h"

namespace perfbench {

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
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
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += lightmirm::StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  return lightmirm::StrFormat("%.17g", v);
}

std::string MetricsJson(const std::map<std::string, MetricValue>& metrics) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += lightmirm::StrFormat(
        "%s: {\"value\": %s, \"unit\": %s, \"samples\": %llu}",
        JsonString(name).c_str(), JsonNumber(m.value).c_str(),
        JsonString(m.unit).c_str(),
        static_cast<unsigned long long>(m.samples));
  }
  return out + (first ? "}" : "\n  }");
}

}  // namespace

namespace {
const std::chrono::steady_clock::time_point& ClockOrigin() {
  static const auto origin = std::chrono::steady_clock::now();
  return origin;
}
}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - ClockOrigin())
      .count();
}

void SleepUntilNs(int64_t t) {
  std::this_thread::sleep_until(ClockOrigin() + std::chrono::nanoseconds(t));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const size_t n = values.size();
  const size_t idx = std::min(
      n - 1, static_cast<size_t>(q * static_cast<double>(n - 1) + 0.5));
  std::nth_element(values.begin(), values.begin() + idx, values.end());
  return values[idx];
}

double Median(std::vector<double> values) {
  const size_t n = values.size();
  if (n == 0) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

uint64_t HashScores(const double* scores, size_t n) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < n; ++i) {
    uint64_t bits = 0;
    std::memcpy(&bits, &scores[i], sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit, uint64_t samples) {
  end_to_end_[name] = MetricValue{value, unit, samples};
  std::printf("  %-34s %14.6g %-6s", name.c_str(), value, unit.c_str());
  if (samples > 0) {
    std::printf(" (n=%llu)", static_cast<unsigned long long>(samples));
  }
  std::printf("\n");
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit, uint64_t samples) {
  per_layer_[name] = MetricValue{value, unit, samples};
  std::printf("  layer %-36s %14.6g %-6s", name.c_str(), value, unit.c_str());
  if (samples > 0) {
    std::printf(" (n=%llu)", static_cast<unsigned long long>(samples));
  }
  std::printf("\n");
}

void Report::Info(const std::string& key, const std::string& json_value) {
  info_.emplace_back(key, json_value);
}

void Report::Fail(const std::string& why) {
  std::printf("CORRECTNESS FAILURE: %s\n", why.c_str());
  failures_.push_back(why);
}

void Report::Invalidate(const std::string& why) {
  std::printf("RUN INVALID: %s\n", why.c_str());
  failures_.push_back("invalid run: " + why);
  valid_ = false;
}

std::string Report::ToJson(const RunOptions& options) const {
  using lightmirm::StrFormat;
  std::string out = "{\n";
  out += StrFormat("  \"benchmark_version\": %d,\n", kBenchmarkVersion);
  out += StrFormat("  \"workload\": %s,\n",
                   JsonString(options.workload).c_str());
  out += StrFormat("  \"seed\": %llu,\n",
                   static_cast<unsigned long long>(options.seed));
  out += StrFormat("  \"seconds\": %s,\n", JsonNumber(options.seconds).c_str());
  out += StrFormat("  \"trace\": %d,\n", options.trace ? 1 : 0);
  out += "  \"build\": {";
  out += StrFormat("\"build_type\": %s, ",
                   JsonString(PERFBENCH_BUILD_TYPE).c_str());
  out += StrFormat("\"compiler\": %s, ", JsonString(__VERSION__).c_str());
  out += StrFormat("\"simd_level\": %s, ",
                   JsonString(lightmirm::serve::SimdLevelName(
                                  lightmirm::serve::ActiveSimdLevel()))
                       .c_str());
  out += StrFormat("\"hardware_threads\": %d, ", lightmirm::HardwareThreads());
  out += StrFormat("\"cpu_model\": %s},\n",
                   JsonString(lightmirm::serve::CpuModelName()).c_str());
  out += StrFormat("  \"correct\": %s,\n", correct() ? "true" : "false");
  out += StrFormat("  \"valid\": %s,\n", valid_ ? "true" : "false");
  out += "  \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out += (i ? ", " : "") + JsonString(failures_[i]);
  }
  out += "],\n";
  out += StrFormat("  \"attempted\": %llu,\n",
                   static_cast<unsigned long long>(attempted));
  out += StrFormat("  \"failed\": %llu,\n",
                   static_cast<unsigned long long>(failed));
  out += "  \"end_to_end\": " + MetricsJson(end_to_end_) + ",\n";
  out += "  \"per_layer\": " + MetricsJson(per_layer_) + ",\n";
  out += "  \"info\": {";
  for (size_t i = 0; i < info_.size(); ++i) {
    out += (i ? ",\n    " : "\n    ") + JsonString(info_[i].first) + ": " +
           info_[i].second;
  }
  out += info_.empty() ? "}\n" : "\n  }\n";
  return out + "}\n";
}

namespace {
std::atomic<const char*> g_stage{"start"};
std::atomic<uint64_t> g_progress{0};
}  // namespace

void SetStage(const char* stage) {
  g_stage.store(stage, std::memory_order_relaxed);
  g_progress.fetch_add(1, std::memory_order_relaxed);
  std::printf("[%.3f s] %s\n", Seconds(NowNs()), stage);
}

Watchdog::Watchdog(double limit_s)
    : thread_([this, limit_s] {
        uint64_t seen = g_progress.load(std::memory_order_relaxed);
        int64_t last_progress = NowNs();
        std::unique_lock<std::mutex> lock(mu_);
        while (!cv_.wait_for(lock, std::chrono::seconds(1),
                             [this] { return done_; })) {
          const uint64_t now_progress =
              g_progress.load(std::memory_order_relaxed);
          if (now_progress != seen) {
            seen = now_progress;
            last_progress = NowNs();
          } else if (Seconds(NowNs() - last_progress) > limit_s) {
            std::fprintf(stderr,
                         "watchdog: no progress for %.0f s, stuck in "
                         "stage: %s\n",
                         limit_s, g_stage.load(std::memory_order_relaxed));
            std::fflush(stdout);
            std::fflush(stderr);
            std::_Exit(kHungExitCode);
          }
        }
      }) {}

Watchdog::~Watchdog() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    done_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

uint32_t ThreadTag() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t tag = ++next;
  return tag;
}

uint64_t SpanRecorder::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++next_id_;
}

void SpanRecorder::Add(SpanRecord span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (span.id == 0) span.id = ++next_id_;
  spans_.push_back(std::move(span));
}

std::vector<double> SpanRecorder::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (span.name == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-6);
    }
  }
  return out;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(f, "{\"traceEvents\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu, \"request\": %llu}}",
                 i ? "," : "", JsonString(s.name).c_str(), s.thread,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

namespace {
thread_local uint64_t t_open_span = 0;  ///< innermost open Span here
}  // namespace

Span::Span(SpanRecorder* recorder, const char* name)
    : recorder_(recorder != nullptr && recorder->enabled() ? recorder
                                                           : nullptr),
      name_(name) {
  if (recorder_ == nullptr) return;
  id_ = recorder_->NextId();
  parent_ = t_open_span;
  t_open_span = id_;
  start_ns_ = NowNs();
}

Span::~Span() {
  if (recorder_ == nullptr) return;
  t_open_span = parent_;
  SpanRecord record;
  record.name = name_;
  record.start_ns = start_ns_;
  record.end_ns = NowNs();
  record.id = id_;
  record.parent = parent_;
  record.thread = ThreadTag();
  recorder_->Add(std::move(record));
}

}  // namespace perfbench
