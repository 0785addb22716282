#pragma once
// util::simd — the tiny dispatch layer behind the vectorized block-codec
// kernels (DREAM significance remap, SEC/DED syndrome/correction).
//
// One kernel tier per CPU, chosen by:
//  - the build: defining ULPDREAM_DISABLE_SIMD (the CMake option of the
//    same name) removes every intrinsic kernel; the scalar loops — which
//    are always built and are the bit-exact reference — are all that
//    remains. Non-x86 targets take this path automatically.
//  - the CPU: otherwise one probe picks AVX2 when the CPU has it and the
//    scalar loops when it does not.
//  - tests: force_tier() clamps the active tier so the SIMD-vs-scalar
//    differential suites can run both tiers in one binary.
//
// Every kernel guarded by this layer must be bit-identical to its scalar
// fallback — outputs, CodecCounters and AccessStats alike. The dispatch
// is observable (tier_name() lands in micro_codec's --datapath JSON) but
// never allowed to change results.

#include <cstdint>

// Compile-time gate: x86 + a GNU-flavoured compiler (for the per-function
// target("avx2") attribute) and not explicitly disabled.
#if !defined(ULPDREAM_DISABLE_SIMD) && \
    (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define ULPDREAM_SIMD_X86 1
#else
#define ULPDREAM_SIMD_X86 0
#endif

namespace ulpdream::util::simd {

/// Kernel tiers, ordered. The values are what the simd.active_tier gauge
/// reports, so kAvx2 stays 2 for metrics saved by any build.
enum class Tier : std::uint8_t { kScalar = 0, kAvx2 = 2 };

[[nodiscard]] const char* tier_name(Tier tier) noexcept;

/// The tier kernels should dispatch to: the probed CPU tier, clamped by
/// the compile-time gate and any force_tier() override. Cheap after the
/// first call.
[[nodiscard]] Tier active_tier() noexcept;

/// Test hook: clamp active_tier() to `tier` (never raises above what the
/// build/CPU support). Not thread-safe against concurrent kernel calls —
/// for differential tests only.
void force_tier(Tier tier) noexcept;
/// Removes the force_tier() clamp.
void clear_forced_tier() noexcept;

}  // namespace ulpdream::util::simd
