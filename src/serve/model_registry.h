// ModelRegistry: the versioned model plane. A registry holds multiple
// immutable model versions — each a trained GbdtLrModel with its score
// reference, compiled/quantized serving artifacts, and its own health
// monitor — keyed by id, with one version active (the champion) and at
// most one staged as challenger for shadow scoring (serve/shadow.h).
//
// The active version swaps RCU-style: scorers take one shared_ptr
// snapshot per batch (a shared_lock held only for the pointer copy —
// readers never contend with each other, and writers hold the lock just
// long enough to assign a pointer) and finish the whole batch on that
// snapshot, so a concurrent Activate can never produce a batch scored
// partly by the old and partly by the new version. Retired versions stay
// alive as long as any in-flight batch still references them and are
// evicted once only the registry's own map holds them.
//
// Why not std::atomic<std::shared_ptr>? libstdc++ 12's lock-free-ish
// _Sp_atomic releases its internal lock bit with relaxed ordering, which
// ThreadSanitizer cannot see through (annotations only landed in GCC 13),
// so the hot-swap race test would report false positives. The
// shared_mutex snapshot has the same observable semantics and keeps the
// TSan CI job meaningful.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "core/gbdt_lr_model.h"
#include "obs/monitor.h"
#include "serve/challenger_gate.h"
#include "serve/scoring_session.h"

namespace lightmirm::serve {

/// One immutable registered version. The model (and through it the
/// scoring session and its forest) never mutates after Create; the
/// monitor is the version's online state and is internally synchronized,
/// so sharing a ModelVersion across scoring threads needs no further
/// locking.
class ModelVersion {
 public:
  /// Wraps a trained model. Errors when `id` is empty or the model has no
  /// scoring session (the raw-feature ablation cannot serve through the
  /// registry). A health monitor is created from the model's score
  /// reference under `monitor_options` when one was captured; versions of
  /// reference-less models carry a null monitor and cannot pass a
  /// challenger gate.
  static Result<std::shared_ptr<const ModelVersion>> Create(
      std::string id, core::GbdtLrModel model,
      const obs::MonitorOptions& monitor_options = {});

  /// A sibling version: shares `base`'s immutable model (and through it
  /// the compiled/quantized serving artifacts — GbdtLrModel is move-only,
  /// so siblings are how many registries serve one trained model) under
  /// the same id, but carries its OWN freshly created monitor. The
  /// sharded service registers one sibling per shard so every shard's
  /// windows observe only that shard's slice of the traffic.
  static Result<std::shared_ptr<const ModelVersion>> CreateSibling(
      const std::shared_ptr<const ModelVersion>& base,
      const obs::MonitorOptions& monitor_options = {});

  const std::string& id() const { return id_; }
  const core::GbdtLrModel& model() const { return *model_; }
  const std::shared_ptr<const ScoringSession>& session() const {
    return session_;
  }
  /// The version's own health monitor; null when the model carries no
  /// score reference.
  const std::shared_ptr<obs::ModelHealthMonitor>& monitor() const {
    return monitor_;
  }

 private:
  ModelVersion(std::string id,
               std::shared_ptr<const core::GbdtLrModel> model)
      : id_(std::move(id)), model_(std::move(model)) {}

  std::string id_;
  /// Shared, never mutated after Create; siblings alias it.
  std::shared_ptr<const core::GbdtLrModel> model_;
  std::shared_ptr<const ScoringSession> session_;
  std::shared_ptr<obs::ModelHealthMonitor> monitor_;
};

/// Thread-safe multi-version registry; see file comment. Writers (Add /
/// Activate / StageChallenger / Remove / eviction) serialize on one mutex;
/// readers of active()/challenger() take a shared lock only for the
/// pointer copy and score entirely on the snapshot.
class ModelRegistry {
 public:
  ModelRegistry() = default;
  LIGHTMIRM_DISALLOW_COPY(ModelRegistry);

  /// Registers a version. Errors on null or duplicate id. The first
  /// version ever added becomes active so a fresh registry can serve
  /// immediately.
  Status Add(std::shared_ptr<const ModelVersion> version);

  /// Convenience: ModelVersion::Create + Add, returning the version.
  Result<std::shared_ptr<const ModelVersion>> Register(
      std::string id, core::GbdtLrModel model,
      const obs::MonitorOptions& monitor_options = {});

  Result<std::shared_ptr<const ModelVersion>> Get(
      const std::string& id) const;
  /// Registered ids, ascending.
  std::vector<std::string> VersionIds() const;
  size_t size() const;

  /// Current champion — a shared-locked pointer copy. Callers score the
  /// whole batch against the snapshot they took; null only before the
  /// first Add.
  std::shared_ptr<const ModelVersion> active() const {
    std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
    return active_;
  }
  /// Currently staged challenger (null when none).
  std::shared_ptr<const ModelVersion> challenger() const {
    std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
    return challenger_;
  }

  /// Atomically makes `id` the active version (the hot swap). In-flight
  /// batches holding the previous snapshot finish on it untouched. A
  /// version staged as challenger cannot be activated directly — that is
  /// the gate's job (ApplyVerdict), not a side door around it.
  Status Activate(const std::string& id);

  /// Stages `id` for shadow scoring. Errors when it is the active version,
  /// when another challenger is already staged, or when the version has no
  /// monitor (a gate could never evaluate it).
  Status StageChallenger(const std::string& id);
  /// Unstages the challenger, if any (the version stays registered).
  void ClearChallenger();

  /// Applies a gate verdict to the staged challenger: PROMOTE hot-swaps it
  /// to active (the old champion stays registered for rollback), REJECT
  /// unstages and removes it from the registry, HOLD leaves everything in
  /// place for more evidence. Errors when no challenger is staged.
  Status ApplyVerdict(GateVerdict verdict);

  /// Unregisters `id`. The active version and a staged challenger cannot
  /// be removed. In-flight references keep the version alive; the registry
  /// just stops handing it out.
  Status Remove(const std::string& id);

  /// Evicts every retired version (neither active nor challenger) that no
  /// one outside the registry references anymore, returning how many were
  /// dropped. Call periodically after swaps to bound memory under rolling
  /// deployments.
  size_t EvictUnreferenced();

 private:
  mutable std::mutex mu_;  ///< guards versions_ and serializes all writers
  std::map<std::string, std::shared_ptr<const ModelVersion>> versions_;
  /// Guards the two snapshot slots. Writers hold mu_ AND a unique lock
  /// here for the assignment; readers under mu_ may read the slots bare.
  mutable std::shared_mutex snapshot_mu_;
  std::shared_ptr<const ModelVersion> active_;
  std::shared_ptr<const ModelVersion> challenger_;
};

}  // namespace lightmirm::serve
