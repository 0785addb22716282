#pragma once
// Q1.15 coefficients and the rounding shift of the fixed-point DSP. The
// paper's applications run on 16-bit integer samples (MIT-BIH style) with
// Q1.15 filter coefficients; conversion saturates instead of wrapping, so
// precision-scaling behaviour is deterministic and testable.

#include <cstdint>

namespace ulpdream::fixed {

/// Arithmetic shift right with round-half-away-from-zero; the rounding mode
/// matters for DSP bias (plain truncation accumulates a DC error across
/// filter cascades).
template <typename T>
[[nodiscard]] constexpr T rounded_shift_right(T v, int shift) noexcept {
  if (shift <= 0) return v;
  const T half = static_cast<T>(T{1} << (shift - 1));
  if (v >= 0) return static_cast<T>((v + half) >> shift);
  return static_cast<T>(-((-v + half) >> shift));
}

/// Q1.15: a sign bit and 15 fractional bits in 16 bits, the coefficient
/// format of the DSP substrate (applied to samples by mul_q15).
class Q15 {
 public:
  static constexpr std::int16_t kRawMax = 32767;
  static constexpr std::int16_t kRawMin = -32768;

  constexpr Q15() noexcept = default;

  /// Constructs from a raw Q1.15 code (no scaling).
  [[nodiscard]] static constexpr Q15 from_raw(std::int16_t raw) noexcept {
    Q15 q;
    q.raw_ = raw;
    return q;
  }

  /// Constructs from a double: v * 2^15 rounded half away from zero,
  /// saturated to [kRawMin, kRawMax].
  [[nodiscard]] static constexpr Q15 from_double(double v) noexcept {
    const double scaled = v * 32768.0;
    const double r = scaled >= 0.0 ? scaled + 0.5 : scaled - 0.5;
    if (r >= static_cast<double>(kRawMax)) return from_raw(kRawMax);
    if (r <= static_cast<double>(kRawMin)) return from_raw(kRawMin);
    return from_raw(static_cast<std::int16_t>(r));
  }

  [[nodiscard]] constexpr std::int16_t raw() const noexcept { return raw_; }

 private:
  std::int16_t raw_ = 0;
};

}  // namespace ulpdream::fixed
