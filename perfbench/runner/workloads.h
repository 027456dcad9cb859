// The benchmark's workloads. Each builds its inputs from the seed, sets up
// (timed as setup_s, several times, median reported), measures for the
// requested seconds, then checks every output untimed. Traced runs add the
// per-layer ledger: spans around the calls the workload makes into each
// layer, the service's own counters and stage histograms, and isolated
// probes of the session, the monitor and the admin calls.
#pragma once

#include "common/status.h"
#include "harness.h"

namespace perfbench {

/// Open loop: Poisson arrivals of 1/8/64-row unlabeled requests at a low
/// then a high absolute row rate, latency timed from the scheduled send.
lightmirm::Status RunInteractive(const RunOptions& options, Report* report,
                                 SpanRecorder* spans);

/// Training jobs: 2016-2019 rows to a deployable LightMIRM model, then the
/// model's first traffic (interactive's high phase, through a fresh
/// service).
lightmirm::Status RunRetrain(const RunOptions& options, Report* report,
                             SpanRecorder* spans);

}  // namespace perfbench
