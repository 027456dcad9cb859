// perfbench_runner: runs one benchmark workload in this process and writes
// its full result document. Normally launched by perfbench/run.py, which
// builds it, adds the source provenance, and prints the summary line.
//
//   perfbench_runner --workload interactive|retrain --seed N
//       --seconds S --trace 0|1 --result-out FILE [--trace-out FILE]
//
// Exits non-zero (writing no result) when the run cannot complete — with
// code 3 when the watchdog stops a run that stopped making progress. A run
// that completes writes its result; it exits 4 when it was invalidated
// (the load generator was stalled), else 0, also when a
// correctness check failed (correct = false in the result).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "interactive|retrain --seed N --seconds S --trace 0|1 "
               "--result-out FILE [--trace-out FILE]\n",
               why);
  return 2;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && wrote;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed takes a whole number");
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        return Usage("--seconds takes a positive number");
      }
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else if (key == "--result-out") {
      options.result_out = value;
    } else if (key == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("arguments come in --key value pairs");
  if (options.result_out.empty()) return Usage("--result-out is required");

  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // progress reaches logs live
  // No stage of a healthy run lasts this long (the longest is the timed
  // window itself); see perfbench::Watchdog.
  const perfbench::Watchdog watchdog(std::max(30.0, options.seconds + 15.0));
  perfbench::Report report;
  perfbench::SpanRecorder spans(options.trace);
  std::printf("workload %s, seed %llu, %.1f s, trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  lightmirm::Status status;
  if (options.workload == "interactive") {
    status = perfbench::RunInteractive(options, &report, &spans);
  } else if (options.workload == "retrain") {
    status = perfbench::RunRetrain(options, &report, &spans);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench_runner: %s failed: %s\n",
                 options.workload.c_str(), status.ToString().c_str());
    return 1;
  }
  report.EndToEnd("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  if (spans.enabled() && !options.trace_out.empty()) {
    if (!spans.WriteChromeTrace(options.trace_out)) {
      std::fprintf(stderr, "perfbench_runner: cannot write %s\n",
                   options.trace_out.c_str());
      return 1;
    }
    std::printf("wrote %zu spans to %s\n", spans.size(),
                options.trace_out.c_str());
  }
  if (!WriteFile(options.result_out, report.ToJson(options))) {
    std::fprintf(stderr, "perfbench_runner: cannot write %s\n",
                 options.result_out.c_str());
    return 1;
  }
  std::fflush(stdout);
  return report.valid() ? 0 : perfbench::kInvalidExitCode;
}
