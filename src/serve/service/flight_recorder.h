// FlightRecorder: a fixed-size lock-free ring of recent service events
// (submits, sheds, flushes with their reason — idle or explicit — scored
// batches, deploys, health evaluations, alerts). Producers on any thread
// Record() with a few atomic ops plus release field stores (plain stores
// on x86) — no mutex, no allocation — so the recorder can sit on the
// Submit hot path. When the
// merged fleet health transitions into ALERT the service dumps the ring
// next to the HealthSnapshot, so a page arrives with its last-N-events
// context ("what was the service doing right before this tripped")
// instead of a bare threshold value.
//
// Each slot is a per-slot seqlock with one writer at a time: a writer
// claims the slot by swinging its sequence to kBusy, stores the fields
// with release stores, then publishes its ticket with a release store;
// readers copy the fields with acquire loads, re-check the sequence and
// drop the slot on any movement. No standalone fence, so ThreadSanitizer
// models every ordering the seqlock relies on.
// A writer lapped by `capacity` tickets that finds its slot busy or
// already holding a newer event drops its own event instead of
// interleaving field stores with the other writer. Every slot field is an
// atomic, so concurrent Record/Snapshot is race-free under TSan; a reader
// may miss slots that are being overwritten mid-snapshot (they are, by
// construction, either the oldest events in the ring or newer than the
// snapshot), never observe a torn event.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"

namespace lightmirm::serve {

enum class ServiceEventType : uint32_t {
  kSubmit = 0,       ///< request accepted: a = rows, b = request id
  kShed = 1,         ///< request shed: a = rows requested, b = rows held
  kFlush = 2,        ///< shard batch flushed: a = rows, b = reason (0 idle,
                     ///  1 explicit)
  kBatchScored = 3,  ///< shard batch scored: a = rows, b = duration ns
  kDeploy = 4,       ///< version activated on the shard
  kHealthEval = 5,   ///< merged evaluation: a = overall state, b = tick
  kAlert = 6,        ///< merged health entered ALERT: a = overall state,
                     ///  b = tick
};

/// "submit", "shed", ...
const char* ServiceEventTypeName(ServiceEventType type);

/// One recorded event. `seq` is the global record order (1-based, gapless
/// per recorder); `ns` is the MonotonicNanos stamp; `shard` is the shard
/// the event concerns (uint32_t(-1) = fleet-wide).
struct ServiceEvent {
  uint64_t seq = 0;
  uint64_t ns = 0;
  ServiceEventType type = ServiceEventType::kSubmit;
  uint32_t shard = 0;
  uint64_t a = 0;
  uint64_t b = 0;
};

inline constexpr uint32_t kFleetWide = static_cast<uint32_t>(-1);

class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two (min 8): the ring keeps
  /// the most recent `capacity()` events.
  explicit FlightRecorder(size_t capacity);
  LIGHTMIRM_DISALLOW_COPY(FlightRecorder);

  void Record(ServiceEventType type, uint32_t shard, uint64_t a, uint64_t b);

  /// Consistent events currently in the ring, oldest first (ascending
  /// seq). Slots caught mid-overwrite are dropped, never torn.
  std::vector<ServiceEvent> Snapshot() const;

  /// Human-readable dump of Snapshot(): one line per event with the time
  /// offset from the ring's oldest event. The page attachment.
  std::string Dump() const;

  size_t capacity() const { return mask_ + 1; }
  /// Events ever recorded (>= capacity means the ring has wrapped).
  uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};  ///< 0 = empty, kBusy = mid-write
    std::atomic<uint64_t> ns{0};
    std::atomic<uint32_t> type{0};
    std::atomic<uint32_t> shard{0};
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
  };

  size_t mask_ = 0;               ///< capacity - 1 (capacity is pow2)
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_{0};  ///< tickets issued
};

}  // namespace lightmirm::serve
