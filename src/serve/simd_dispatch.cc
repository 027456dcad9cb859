#include "serve/simd_dispatch.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "serve/simd_kernel.h"

namespace lightmirm::serve {
namespace {

bool CpuSupportsAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

std::atomic<int>& ActiveLevelSlot() {
  static std::atomic<int> level{static_cast<int>(
      ResolveSimdLevel(std::getenv("LIGHTMIRM_SIMD_LEVEL"),
                       DetectedSimdLevel()))};
  return level;
}

}  // namespace

SimdLevel ResolveSimdLevel(const char* simd_level, SimdLevel detected) {
  if (simd_level != nullptr && simd_level[0] != '\0') {
    if (std::strcmp(simd_level, "scalar") == 0) return SimdLevel::kScalar;
    if (std::strcmp(simd_level, "avx2") == 0) {
      // A tier the build or CPU cannot run clamps to the best it can.
      return detected >= SimdLevel::kAvx2 ? SimdLevel::kAvx2
                                          : SimdLevel::kScalar;
    }
    if (std::strcmp(simd_level, "auto") != 0) {
      std::fprintf(stderr,
                   "lightmirm: unknown LIGHTMIRM_SIMD_LEVEL '%s' "
                   "(want scalar|avx2|auto); using auto\n",
                   simd_level);
    }
  }
  return detected;
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

SimdLevel DetectedSimdLevel() {
  static const SimdLevel detected =
      Avx2KernelAvailable() && CpuSupportsAvx2() ? SimdLevel::kAvx2
                                                 : SimdLevel::kScalar;
  return detected;
}

SimdLevel ActiveSimdLevel() {
  return static_cast<SimdLevel>(
      ActiveLevelSlot().load(std::memory_order_relaxed));
}

SimdLevel SetSimdLevel(SimdLevel level) {
  if (static_cast<int>(level) > static_cast<int>(DetectedSimdLevel())) {
    level = DetectedSimdLevel();
  }
  ActiveLevelSlot().store(static_cast<int>(level),
                          std::memory_order_relaxed);
  return level;
}

std::string CpuModelName() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f != nullptr) {
    char line[512];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, "model name", 10) == 0) {
        const char* colon = std::strchr(line, ':');
        if (colon != nullptr) {
          std::string name(colon + 1);
          while (!name.empty() && (name.front() == ' ' || name.front() == '\t')) {
            name.erase(name.begin());
          }
          while (!name.empty() &&
                 (name.back() == '\n' || name.back() == ' ')) {
            name.pop_back();
          }
          std::fclose(f);
          if (!name.empty()) return name;
          break;
        }
      }
    }
    std::fclose(f);
  }
#endif
  return "unknown";
}

}  // namespace lightmirm::serve
