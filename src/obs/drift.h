// Score-distribution drift primitives for online model-health monitoring:
// a training-time ScoreReference (per-province binned score histograms +
// class counts captured when the model is built, persisted by
// core/model_io) and a SlidingWindow that maintains the same binned
// aggregates incrementally over the most recent observations, so PSI /
// drift-KS / streaming AUC / calibration evaluate in O(bins) per snapshot
// (the math lives in metrics/streaming.h). obs/monitor.h layers the
// thresholded alerting state machines on top.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"

namespace lightmirm::obs {

/// Bin index of a score under `num_bins` equal-width bins over [0, 1].
/// Scores outside [0, 1] clamp to the first/last bin. Inline: this runs
/// per scored row on the monitored serving path.
inline int ScoreBin(double score, int num_bins) {
  const int bin = static_cast<int>(score * static_cast<double>(num_bins));
  return std::clamp(bin, 0, num_bins - 1);
}

/// Binned score histogram plus per-bin positive-label counts for one
/// population (all training rows are labeled, so the reference can derive
/// default rate, discrimination AUC/KS and class CDFs from these counts).
struct BinnedScores {
  std::vector<uint64_t> counts;     ///< rows per score bin
  std::vector<uint64_t> positives;  ///< label==1 rows per score bin

  uint64_t Total() const;
  uint64_t TotalPositives() const;
  /// Fraction of rows with label == 1 (0 when empty).
  double DefaultRate() const;
  /// counts - positives, the negative-class histogram.
  std::vector<uint64_t> Negatives() const;
};

/// Training-time score distribution captured at model build: the global
/// histogram plus one per environment (province), against which the
/// monitor's sliding windows are compared. Environment names ride along so
/// monitor metrics can be published under province names.
struct ScoreReference {
  int num_bins = 0;  ///< 0 = no reference captured
  BinnedScores global;
  std::map<int, BinnedScores> per_env;
  std::vector<std::string> env_names;  ///< index == env id; may be empty

  bool empty() const { return num_bins == 0; }
  /// "env<e>" when names are absent or e is out of range.
  std::string EnvName(int env) const;

  /// Line-oriented text serialization (embedded in the model_io format).
  /// WriteTo emits a self-delimiting section; Parse consumes exactly one
  /// such section. Parse at end-of-stream returns an empty reference, so
  /// model files persisted before references existed load cleanly.
  Status WriteTo(std::ostream* out) const;
  static Result<ScoreReference> Parse(std::istream* in);
};

/// Builds a reference from training scores. `envs` may be empty (global
/// histogram only); otherwise it must be score-aligned, and every
/// environment with at least `min_env_rows` rows gets its own histogram.
/// Errors on misaligned inputs, labels outside {0,1}, or num_bins < 2.
Result<ScoreReference> BuildScoreReference(
    const std::vector<double>& scores, const std::vector<int>& labels,
    const std::vector<int>& envs, int num_bins = 10,
    size_t min_env_rows = 50, std::vector<std::string> env_names = {});

/// Fixed-capacity sliding window over (score, optional label) observations
/// with incrementally maintained binned aggregates. Adding the
/// (capacity+1)-th observation evicts the oldest; aggregates are updated
/// on both insert and evict, so snapshots depend only on the observation
/// sequence (never on batch sizes or thread counts). Unlabeled rows
/// (label == -1, the delayed-label case) count toward the distribution
/// aggregates but not the labeled ones.
class SlidingWindow {
 public:
  /// One pre-binned observation, 4 bytes. The score is quantized to 16
  /// bits — it only feeds the calibration score sums, where the <=8e-6
  /// rounding is orders of magnitude below any calibration threshold — and
  /// the bin is cached so neither eviction nor a second window re-bins.
  /// The ring buffers run per scored row on the monitored serving path
  /// under caches the scoring pass just trashed, so entry bytes are what
  /// the feed cost is made of. Build with MakeEntry.
  struct Entry {
    uint16_t qscore = 0;  ///< round(clamp(score, 0, 1) * 65535)
    uint8_t bin = 0;
    int8_t label = -1;
  };

  /// Quantized score back as a double in [0, 1].
  static double EntryScore(const Entry& e) {
    return static_cast<double>(e.qscore) * (1.0 / 65535.0);
  }

  /// Bins `score` once for every window with this bin count (must be
  /// <= kMaxBins). label must be -1 (unknown yet), 0 or 1. The bin is
  /// derived from the quantized score with integer math — it equals
  /// ScoreBin(EntryScore(e)) exactly, and can differ from
  /// ScoreBin(score) only when the score sits within one quantum
  /// (~8e-6) of a bin edge.
  static Entry MakeEntry(double score, int label, int num_bins) {
    const double clamped = std::clamp(score, 0.0, 1.0);
    const uint32_t q = static_cast<uint32_t>(clamped * 65535.0 + 0.5);
    const uint32_t bins = static_cast<uint32_t>(num_bins);
    return Entry{static_cast<uint16_t>(q),
                 static_cast<uint8_t>(std::min(q * bins / 65535u, bins - 1)),
                 static_cast<int8_t>(label < 0 ? -1 : (label != 0))};
  }

  /// Entry::bin is 8 bits, so windows support at most 256 score bins
  /// (monitoring uses 10-bin histograms; this is not a practical limit).
  static constexpr int kMaxBins = 256;

  SlidingWindow(int num_bins, size_t capacity);

  /// label must be -1 (unknown yet), 0 or 1. Defined inline below — this
  /// is the monitored serving path's per-row cost.
  void Add(double score, int label);

  /// Add of an entry built by MakeEntry with this window's bin count. The
  /// monitor feeds several same-binning windows per row; binning once and
  /// reusing the entry keeps that path cheap.
  void Add(const Entry& e);

  /// Exactly `Add(entries[0..n))`, but with the ring cursor and aggregate
  /// pointers held in locals across the loop — the serving-path monitor
  /// feeds whole chunks at once and the per-Add member traffic would
  /// otherwise be a measurable fraction of its budget.
  void AddBatch(const Entry* entries, size_t n);

  /// Hints the cache that the lines the next few Adds touch (ring slots
  /// and the bin-count array) are about to be written. The monitor issues
  /// these for every active window at the top of each chunk: the per-env
  /// windows are cold after a scoring pass, and prefetching early lets the
  /// global-window feed overlap their miss latency.
  void PrefetchNextSlot() const {
#if defined(__GNUC__) || defined(__clang__)
    // A loaded or copied ring that is still filling may hold less than
    // capacity_ slots of storage; never point past it.
    const size_t slots = std::min(capacity_, ring_.capacity());
    if (next_ < slots) {
      __builtin_prefetch(ring_.data() + next_, /*rw=*/1);
      __builtin_prefetch(ring_.data() + std::min(next_ + 15, slots - 1),
                         /*rw=*/1);
    }
    __builtin_prefetch(counts_.data(), /*rw=*/1);
#endif
  }

  int num_bins() const { return num_bins_; }
  size_t capacity() const { return capacity_; }

  size_t size() const { return ring_.size(); }
  uint64_t total_seen() const { return total_seen_; }

  /// Line-oriented text serialization of the complete window state — ring
  /// contents, cursor, and every aggregate — in the same self-delimiting
  /// style as ScoreReference. Aggregates are persisted verbatim (doubles
  /// as %.17g) rather than rebuilt from the ring: score_sums_ carries the
  /// residue of every add/evict pair ever applied, so replaying the
  /// surviving entries would not reproduce it bit-for-bit. A restored
  /// window therefore continues the observation stream exactly where the
  /// saved one stopped.
  Status SaveState(std::ostream* out) const;
  static Result<SlidingWindow> LoadState(std::istream* in);

  /// All-row score histogram (PSI / drift-KS input).
  const std::vector<uint64_t>& bin_counts() const { return counts_; }
  /// Labeled-row aggregates (streaming AUC/KS, default rate, calibration).
  const std::vector<uint64_t>& labeled_counts() const { return labeled_; }
  const std::vector<uint64_t>& labeled_positives() const { return positives_; }
  const std::vector<double>& labeled_score_sums() const { return score_sums_; }
  uint64_t labeled_total() const { return labeled_total_; }
  uint64_t positive_total() const { return positive_total_; }

 private:
  struct NoReserve {};
  // The public constructor without reserving the ring: LoadState's
  // capacity comes from the file, so it reserves nothing up front.
  SlidingWindow(int num_bins, size_t capacity, NoReserve);

  void Apply(const Entry& e, int64_t sign);

  int num_bins_;
  size_t capacity_;
  size_t next_ = 0;  ///< ring slot the next Add writes
  std::vector<Entry> ring_;
  uint64_t total_seen_ = 0;
  std::vector<uint64_t> counts_;
  std::vector<uint64_t> labeled_;
  std::vector<uint64_t> positives_;
  std::vector<double> score_sums_;
  uint64_t labeled_total_ = 0;
  uint64_t positive_total_ = 0;
};

inline void SlidingWindow::Apply(const Entry& e, int64_t sign) {
  const size_t b = static_cast<size_t>(e.bin);
  counts_[b] = static_cast<uint64_t>(static_cast<int64_t>(counts_[b]) + sign);
  if (e.label >= 0) {
    labeled_[b] =
        static_cast<uint64_t>(static_cast<int64_t>(labeled_[b]) + sign);
    labeled_total_ =
        static_cast<uint64_t>(static_cast<int64_t>(labeled_total_) + sign);
    score_sums_[b] += static_cast<double>(sign) * EntryScore(e);
    if (e.label == 1) {
      positives_[b] =
          static_cast<uint64_t>(static_cast<int64_t>(positives_[b]) + sign);
      positive_total_ =
          static_cast<uint64_t>(static_cast<int64_t>(positive_total_) + sign);
    }
  }
}

inline void SlidingWindow::Add(const Entry& e) {
  ++total_seen_;
  Apply(e, +1);
  if (ring_.size() < capacity_) [[unlikely]] {  // only while filling
    ring_.push_back(e);
  } else {
    Apply(ring_[next_], -1);
    ring_[next_] = e;
  }
  // Branch instead of modulo: the divide would dominate the per-row cost.
  if (++next_ == capacity_) next_ = 0;
}

inline void SlidingWindow::Add(double score, int label) {
  Add(MakeEntry(score, label, num_bins_));
}

inline void SlidingWindow::AddBatch(const Entry* entries, size_t n) {
  size_t i = 0;
  while (ring_.size() < capacity_ && i < n) Add(entries[i++]);  // filling
  if (i == n) return;
  // Steady state: the ring is full, every add evicts. Locals keep the
  // cursor and the unlabeled-path aggregates out of memory; the labeled
  // branches stay perfectly predicted on the serving path (no labels yet).
  Entry* const ring = ring_.data();
  uint64_t* const counts = counts_.data();
  size_t next = next_;
  total_seen_ += n - i;
  for (; i < n; ++i) {
    const Entry e = entries[i];
    const Entry old = ring[next];
    ring[next] = e;
    if (++next == capacity_) next = 0;
    ++counts[e.bin];
    --counts[old.bin];
    if (e.label >= 0) {
      ++labeled_[e.bin];
      ++labeled_total_;
      score_sums_[e.bin] += EntryScore(e);
      if (e.label == 1) {
        ++positives_[e.bin];
        ++positive_total_;
      }
    }
    if (old.label >= 0) {
      --labeled_[old.bin];
      --labeled_total_;
      score_sums_[old.bin] -= EntryScore(old);
      if (old.label == 1) {
        --positives_[old.bin];
        --positive_total_;
      }
    }
  }
  next_ = next;
}

}  // namespace lightmirm::obs
