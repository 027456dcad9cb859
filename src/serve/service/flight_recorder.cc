#include "serve/service/flight_recorder.h"

#include <algorithm>

#include "common/string_util.h"
#include "serve/service/exemplar.h"

namespace lightmirm::serve {
namespace {

constexpr uint64_t kBusy = static_cast<uint64_t>(-1);

size_t RoundUpPow2(size_t n) {
  size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

const char* ServiceEventTypeName(ServiceEventType type) {
  switch (type) {
    case ServiceEventType::kSubmit:
      return "submit";
    case ServiceEventType::kShed:
      return "shed";
    case ServiceEventType::kFlush:
      return "flush";
    case ServiceEventType::kBatchScored:
      return "batch_scored";
    case ServiceEventType::kDeploy:
      return "deploy";
    case ServiceEventType::kHealthEval:
      return "health_eval";
    case ServiceEventType::kAlert:
      return "alert";
  }
  return "?";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : mask_(RoundUpPow2(capacity) - 1),
      slots_(new Slot[RoundUpPow2(capacity)]) {}

void FlightRecorder::Record(ServiceEventType type, uint32_t shard,
                            uint64_t a, uint64_t b) {
  const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& slot = slots_[(ticket - 1) & mask_];
  // Per-slot seqlock write. Claim the slot first: two writers `capacity`
  // tickets apart share it, and interleaved field stores would publish a
  // torn event under a stable sequence. No writer waits: one that finds
  // the slot busy or holding a newer event, or loses the claim, drops its
  // event. Each field store is a release, so a reader that sees one of
  // them also sees kBusy (or a later sequence) when it re-checks.
  uint64_t current = slot.seq.load(std::memory_order_relaxed);
  if (current == kBusy || current > ticket ||
      !slot.seq.compare_exchange_strong(current, kBusy,
                                        std::memory_order_relaxed)) {
    return;
  }
  slot.ns.store(MonotonicNanos(), std::memory_order_release);
  slot.type.store(static_cast<uint32_t>(type), std::memory_order_release);
  slot.shard.store(shard, std::memory_order_release);
  slot.a.store(a, std::memory_order_release);
  slot.b.store(b, std::memory_order_release);
  slot.seq.store(ticket, std::memory_order_release);
}

std::vector<ServiceEvent> FlightRecorder::Snapshot() const {
  std::vector<ServiceEvent> events;
  events.reserve(mask_ + 1);
  for (size_t i = 0; i <= mask_; ++i) {
    const Slot& slot = slots_[i];
    const uint64_t before = slot.seq.load(std::memory_order_acquire);
    if (before == 0 || before == kBusy) continue;
    ServiceEvent event;
    event.seq = before;
    // Acquire loads: the re-check below cannot move above them, and a
    // field a newer writer stored makes that writer's claim visible to it.
    event.ns = slot.ns.load(std::memory_order_acquire);
    event.type = static_cast<ServiceEventType>(
        slot.type.load(std::memory_order_acquire));
    event.shard = slot.shard.load(std::memory_order_acquire);
    event.a = slot.a.load(std::memory_order_acquire);
    event.b = slot.b.load(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) != before) continue;
    events.push_back(std::move(event));
  }
  std::sort(events.begin(), events.end(),
            [](const ServiceEvent& x, const ServiceEvent& y) {
              return x.seq < y.seq;
            });
  return events;
}

std::string FlightRecorder::Dump() const {
  const std::vector<ServiceEvent> events = Snapshot();
  std::string out = StrFormat(
      "flight recorder: %zu events (of %llu recorded, capacity %zu)\n",
      events.size(), static_cast<unsigned long long>(recorded()),
      capacity());
  const uint64_t origin = events.empty() ? 0 : events.front().ns;
  for (const ServiceEvent& e : events) {
    const double offset_ms =
        e.ns >= origin ? static_cast<double>(e.ns - origin) * 1e-6 : 0.0;
    std::string shard = e.shard == kFleetWide
                            ? std::string("fleet")
                            : StrFormat("%u", e.shard);
    out += StrFormat("  #%llu +%.3fms %-12s shard=%s a=%llu b=%llu\n",
                     static_cast<unsigned long long>(e.seq), offset_ms,
                     ServiceEventTypeName(e.type), shard.c_str(),
                     static_cast<unsigned long long>(e.a),
                     static_cast<unsigned long long>(e.b));
  }
  return out;
}

}  // namespace lightmirm::serve
