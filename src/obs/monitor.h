// ModelHealthMonitor: online drift and model-health monitoring over the
// serving path. A ScoringSession (or the replay harness) feeds it one call
// per scored batch — (score, province, optional delayed label) per row —
// and it maintains per-environment and global sliding windows whose binned
// aggregates (obs/drift.h) evaluate against the training-time
// ScoreReference: score PSI, drift KS, rolling default rate, streaming
// AUC/KS, calibration error, and the worst-vs-best province AUC gap (the
// paper's minimax-fairness metric). Each signal drives an OK→WARN→ALERT
// state machine with hysteresis; Evaluate() snapshots everything and can
// publish gauges/counters into a MetricsRegistry so the existing JSON /
// Prometheus exporters pick the health state up for free.
//
// Observing is thread-safe (one mutex per monitor, taken per batch, not
// per row) and never touches the scores themselves — predictions are
// bit-identical with monitoring on or off. Evaluation ticks are explicit
// (one per Evaluate call), so snapshots depend only on the observation
// sequence, never on thread count or wall clock.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/drift.h"
#include "obs/metrics.h"

namespace lightmirm::obs {

enum class AlertState { kOk = 0, kWarn = 1, kAlert = 2 };

/// "OK" / "WARN" / "ALERT".
const char* AlertStateName(AlertState state);

/// Thresholds of one monitored signal. Signals are normalized so that
/// bigger is worse ("badness"); a signal escalates when its value reaches
/// warn/alert and de-escalates only after dropping below the threshold by
/// the hysteresis margin — value must fall under threshold * (1 -
/// hysteresis) — so a value oscillating exactly at a threshold never
/// flaps.
struct AlertThresholds {
  double warn = 0.1;
  double alert = 0.25;
  double hysteresis = 0.2;  ///< fraction of the threshold, in [0, 1)
};

/// Per-signal state machine with the hysteresis semantics above.
class AlertStateMachine {
 public:
  explicit AlertStateMachine(AlertThresholds thresholds = {})
      : thresholds_(thresholds) {}

  /// Advances on one evaluated value and returns the new state.
  AlertState Update(double value);
  AlertState state() const { return state_; }
  const AlertThresholds& thresholds() const { return thresholds_; }

  /// One-line text serialization (thresholds + current state), in the same
  /// line-oriented style as ScoreReference, so a restored machine resumes
  /// its hysteresis exactly (an elevated state stays elevated until the
  /// value clears the margin, even across a process restart).
  Status SaveState(std::ostream* out) const;
  static Result<AlertStateMachine> LoadState(std::istream* in);

 private:
  AlertThresholds thresholds_;
  AlertState state_ = AlertState::kOk;
};

/// Monitor configuration. Defaults follow credit-risk conventions (PSI
/// 0.1 / 0.25 bands) and are deliberately conservative for the label-based
/// signals, whose small-window estimates are noisy.
struct MonitorOptions {
  /// Sliding-window capacity per environment (and for the global window).
  size_t window = 4096;
  /// Distribution signals (PSI, drift KS) evaluate only when the window
  /// holds at least this many rows; below it the signal holds its state.
  size_t min_rows = 200;
  /// Label signals (default rate, AUC/KS, calibration) need this many
  /// labeled rows — with both classes present for AUC/KS.
  size_t min_labeled = 150;
  /// Environments participate in the fairness gap only above this labeled
  /// count (per-env AUC noise would otherwise drive the gap).
  size_t fairness_min_labeled = 300;

  AlertThresholds psi{0.1, 0.25, 0.2};
  AlertThresholds drift_ks{0.1, 0.2, 0.2};
  /// Relative rise of the rolling default rate over the reference rate:
  /// max(0, rate - ref) / ref.
  AlertThresholds default_rate_rise{0.5, 1.0, 0.2};
  /// Absolute AUC drop under the reference AUC.
  AlertThresholds auc_drop{0.05, 0.1, 0.2};
  /// Absolute discrimination-KS drop under the reference KS.
  AlertThresholds ks_drop{0.08, 0.16, 0.2};
  /// Expected calibration error of the window.
  AlertThresholds calibration{0.1, 0.2, 0.2};
  /// Worst-vs-best province streaming-AUC gap.
  AlertThresholds fairness_gap{0.15, 0.25, 0.2};

  /// Self-delimiting text serialization of the whole configuration, so a
  /// monitor checkpoint restores under exactly the thresholds it was
  /// running with (not whatever the restarted binary's defaults are).
  Status SaveState(std::ostream* out) const;
  static Result<MonitorOptions> LoadState(std::istream* in);
};

/// One signal's evaluation: value, state, and whether this tick had
/// enough data to evaluate (when false the state was held, not updated).
struct SignalHealth {
  double value = 0.0;
  AlertState state = AlertState::kOk;
  bool evaluated = false;
};

/// Health of one window (an environment or the global pool).
struct WindowHealth {
  uint64_t seen = 0;          ///< observations ever fed
  uint64_t window_rows = 0;   ///< rows currently in the window
  uint64_t labeled_rows = 0;  ///< labeled rows currently in the window
  double default_rate = 0.0;  ///< rolling, over labeled rows
  double auc = 0.0;           ///< streaming AUC (0 when unevaluable)
  double ks = 0.0;            ///< streaming discrimination KS
  SignalHealth psi;
  SignalHealth drift_ks;
  SignalHealth default_rate_rise;
  SignalHealth auc_drop;
  SignalHealth ks_drop;
  SignalHealth calibration;
  /// Worst signal state of this window.
  AlertState overall = AlertState::kOk;
};

/// One Evaluate() tick over every window.
struct HealthSnapshot {
  uint64_t evaluation = 0;  ///< 1-based tick index
  WindowHealth global;
  std::map<int, WindowHealth> per_env;  ///< envs the reference knows
  SignalHealth fairness_gap;
  /// Environments spanned by the fairness gap this tick (ids, ascending).
  std::vector<int> fairness_envs;
  AlertState overall = AlertState::kOk;
};

/// Copy of one sliding window's binned aggregates, taken under the monitor
/// lock. This is the read surface the challenger gate compares champion and
/// challenger monitors through (and what checkpoint tests assert on):
/// everything needed to compute PSI / streaming AUC / calibration between
/// two windows without touching monitor internals.
struct WindowAggregates {
  uint64_t rows = 0;     ///< observations currently in the window
  uint64_t seen = 0;     ///< observations ever fed
  uint64_t labeled = 0;  ///< labeled rows in the window
  uint64_t positives = 0;
  std::vector<uint64_t> counts;            ///< all-row score histogram
  std::vector<uint64_t> labeled_counts;    ///< labeled-row histogram
  std::vector<uint64_t> labeled_positives; ///< label==1 histogram
  std::vector<double> score_sums;          ///< labeled score sums per bin
};

/// Global + every monitored environment window's aggregates, copied under
/// ONE lock acquisition (ModelHealthMonitor::SnapshotWindows), so the
/// bundle is internally consistent: a concurrently observed batch is
/// either in both the global and the env aggregates or in neither. The
/// merged fleet evaluator reads shards through this — per-window getters
/// (GlobalWindow, then EnvWindow per env) would let a batch land between
/// the two copies and show up in one view but not the other.
struct MonitorAggregates {
  WindowAggregates global;
  std::map<int, WindowAggregates> per_env;  ///< monitored envs, ascending
};

/// The six per-window hysteresis machines, bundled so the same signal
/// state can live inside a ModelHealthMonitor's window or inside a
/// MergedHealthEvaluator (which has no windows of its own, only merged
/// aggregates).
struct WindowStateMachines {
  WindowStateMachines() = default;
  explicit WindowStateMachines(const MonitorOptions& options)
      : psi(options.psi),
        drift_ks(options.drift_ks),
        default_rate_rise(options.default_rate_rise),
        auc_drop(options.auc_drop),
        ks_drop(options.ks_drop),
        calibration(options.calibration) {}

  AlertStateMachine psi;
  AlertStateMachine drift_ks;
  AlertStateMachine default_rate_rise;
  AlertStateMachine auc_drop;
  AlertStateMachine ks_drop;
  AlertStateMachine calibration;
};

/// Evaluates one window's signals from its binned aggregates alone and
/// advances the given state machines — the single verdict implementation
/// behind both ModelHealthMonitor::Evaluate (aggregates of a live
/// SlidingWindow) and MergedHealthEvaluator (bin-wise sums across shard
/// windows). `escalations` is incremented per signal that escalated; may
/// be null.
WindowHealth EvaluateWindowAggregates(const WindowAggregates& window,
                                      const BinnedScores& reference,
                                      const MonitorOptions& options,
                                      WindowStateMachines* machines,
                                      uint64_t* escalations);

/// Bin-wise sum of shard window aggregates: O(bins) per part, independent
/// of window capacity or row count. Histogram vectors are summed at the
/// widest part's bin count (shorter parts contribute zeros — callers
/// merging same-reference monitors always have equal widths).
WindowAggregates MergeWindowAggregates(
    const std::vector<WindowAggregates>& parts);

/// Publishes a snapshot as registry gauges under `prefix` ("monitor." for
/// a single monitor, "monitor.fleet." for the merged verdict): value and
/// numeric state (0 OK / 1 WARN / 2 ALERT) per signal per window
/// (`<prefix>env.<province>.psi`, `<prefix>global.auc`, ...), plus
/// `<prefix>fairness_gap`, `<prefix>state` and `<prefix>evaluations`.
/// `reference` supplies the environment names. The shared publisher behind
/// ModelHealthMonitor::PublishTo and MergedHealthEvaluator::PublishTo.
void PublishHealthSnapshot(MetricsRegistry* registry,
                           const std::string& prefix,
                           const HealthSnapshot& snapshot,
                           const ScoreReference& reference);

class ModelHealthMonitor;

/// Global health over a fleet of per-shard monitors, by snapshot merge:
/// each Evaluate tick copies every shard's O(bins) window aggregates,
/// bin-wise-sums them per environment, and runs the exact per-window
/// verdict code a single monitor runs — same signals, same hysteresis,
/// same fairness gap — over the merged aggregates. The evaluator owns its
/// own state machines (shard-local machines never advance), so a fleet's
/// merged timeline is exactly what one monitor observing the union stream
/// would produce whenever no shard window has evicted.
class MergedHealthEvaluator {
 public:
  /// Same validation as ModelHealthMonitor::Create; the reference defines
  /// which environments are merged and compared.
  static Result<MergedHealthEvaluator> Create(ScoreReference reference,
                                              MonitorOptions options = {});

  /// One merged evaluation tick over the shard monitors. Errors when the
  /// list is empty, holds a null entry, or a shard's reference bin count
  /// disagrees with this evaluator's (merging those sums would be
  /// meaningless).
  Result<HealthSnapshot> Evaluate(
      const std::vector<const ModelHealthMonitor*>& shards);

  /// Publishes a merged snapshot under `monitor.fleet.` (same gauge layout
  /// as ModelHealthMonitor::PublishTo), so the fleet verdict reaches the
  /// JSON/Prometheus exporters just like a single monitor's does.
  void PublishTo(MetricsRegistry* registry,
                 const HealthSnapshot& snapshot) const;

  const ScoreReference& reference() const { return reference_; }
  const MonitorOptions& options() const { return options_; }

 private:
  MergedHealthEvaluator(ScoreReference reference, MonitorOptions options);

  ScoreReference reference_;
  MonitorOptions options_;
  WindowStateMachines global_;
  std::map<int, WindowStateMachines> per_env_;
  AlertStateMachine fairness_;
  uint64_t evaluations_ = 0;
  uint64_t escalations_ = 0;
};

/// Thread-safe online monitor; see file comment.
class ModelHealthMonitor {
 public:
  /// Environment ids a reference may hold lie in [0, kEnvIdLimit): the
  /// monitor indexes its env windows by id in a dense table (32 KB at the
  /// limit, against the generator's 31 provinces).
  static constexpr int kEnvIdLimit = 4096;

  /// Errors when the reference is empty or holds an env id outside
  /// [0, kEnvIdLimit). Per-env windows are created for exactly the
  /// environments the reference holds histograms for; other environments
  /// only feed the global window.
  static Result<std::unique_ptr<ModelHealthMonitor>> Create(
      ScoreReference reference, MonitorOptions options = {});

  /// Observes one scored batch. `envs` may be null (rows feed the global
  /// window only); `labels` may be null (scores observed unlabeled — the
  /// delayed-label case) or score-aligned with entries in {-1, 0, 1},
  /// where -1 means "label not known yet".
  Status ObserveBatch(const std::vector<double>& scores,
                      const std::vector<int>* envs,
                      const std::vector<int>* labels);

  /// One evaluation tick: computes every window's signals, advances the
  /// alert state machines, and returns the snapshot.
  HealthSnapshot Evaluate();

  /// Evaluate() + PublishTo(registry, snapshot).
  HealthSnapshot Evaluate(MetricsRegistry* registry);

  /// Publishes a snapshot as registry gauges under `monitor.` — value and
  /// numeric state (0 OK / 1 WARN / 2 ALERT) per signal per window
  /// (`monitor.env.<province>.psi`, `monitor.global.auc`, ...), plus
  /// counters `monitor.evaluations` and `monitor.escalations`.
  void PublishTo(MetricsRegistry* registry,
                 const HealthSnapshot& snapshot) const;

  const ScoreReference& reference() const { return reference_; }
  const MonitorOptions& options() const { return options_; }

  /// Aggregates of the global window / one environment's window, copied
  /// under the lock. EnvWindow errors (NotFound) for environments the
  /// monitor does not track.
  WindowAggregates GlobalWindow() const;
  Result<WindowAggregates> EnvWindow(int env) const;
  /// Every window's aggregates in one lock acquisition — the internally
  /// consistent read surface (see MonitorAggregates). Use this whenever
  /// global and per-env views of the same monitor are compared or merged.
  MonitorAggregates SnapshotWindows() const;
  /// Monitored environment ids, ascending.
  std::vector<int> MonitoredEnvs() const;

  /// Writes the complete serving state — options, reference, every sliding
  /// window (ring + aggregates), every hysteresis state machine, and the
  /// evaluation/escalation counters — as one self-delimiting
  /// "monitor_checkpoint v1" bundle (obs/checkpoint.h has file-level
  /// helpers). LoadCheckpoint reconstructs a monitor that is
  /// bit-identical: feeding the restored monitor any further observation
  /// sequence yields exactly the snapshots the saved one would have
  /// produced, including hysteresis states held from before the save.
  Status SaveCheckpoint(std::ostream* out) const;
  static Result<std::unique_ptr<ModelHealthMonitor>> LoadCheckpoint(
      std::istream* in);

 private:
  struct EnvMonitor {
    explicit EnvMonitor(const MonitorOptions& options, int num_bins)
        : window(num_bins, options.window), machines(options) {}

    SlidingWindow window;
    WindowStateMachines machines;
  };

  ModelHealthMonitor(ScoreReference reference, MonitorOptions options);

  mutable std::mutex mu_;
  ScoreReference reference_;
  MonitorOptions options_;
  EnvMonitor global_;
  std::map<int, EnvMonitor> per_env_;
  /// Dense env-id -> monitor index (nullptr = not monitored), so the
  /// per-row lookup on the serving path is one bounds check + load instead
  /// of a map walk.
  std::vector<EnvMonitor*> env_index_;
  AlertStateMachine fairness_;
  uint64_t evaluations_ = 0;
  uint64_t escalations_ = 0;
};

}  // namespace lightmirm::obs
