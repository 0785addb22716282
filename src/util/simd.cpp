#include "ulpdream/util/simd.hpp"

#include <atomic>

namespace ulpdream::util::simd {

namespace {

Tier detect_tier() {
#if ULPDREAM_SIMD_X86
  return __builtin_cpu_supports("avx2") ? Tier::kAvx2 : Tier::kScalar;
#else
  return Tier::kScalar;
#endif
}

/// -1 while unforced; otherwise the forced tier.
std::atomic<int> g_forced{-1};

}  // namespace

const char* tier_name(Tier tier) noexcept {
  return tier == Tier::kAvx2 ? "avx2" : "scalar";
}

Tier active_tier() noexcept {
  static const Tier detected = detect_tier();
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced < 0) return detected;
  const auto clamp = static_cast<Tier>(forced);
  return clamp < detected ? clamp : detected;
}

void force_tier(Tier tier) noexcept {
  g_forced.store(static_cast<int>(tier), std::memory_order_relaxed);
}

void clear_forced_tier() noexcept {
  g_forced.store(-1, std::memory_order_relaxed);
}

}  // namespace ulpdream::util::simd
