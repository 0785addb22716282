#pragma once
// Output-quality metrics. SNR follows the paper's Formula 1 exactly:
//   SNR = 20 * log10( sqrt(mean(x_theo^2)) / sqrt(MSE) )
// with MSE the mean squared difference between the error-free (theoretical)
// and corrupted (experimental) outputs.

#include <vector>

namespace ulpdream::metrics {

/// SNR value used when the corrupted output is bit-identical to the
/// reference (MSE == 0). The paper plots a finite "maximum SNR" dashed
/// line; we clamp to this ceiling so averages stay finite.
inline constexpr double kSnrCeilingDb = 120.0;

/// Mean squared error between reference and experimental vectors.
/// Precondition: equal, non-zero sizes.
[[nodiscard]] double mse(const std::vector<double>& theo,
                         const std::vector<double>& exp);

/// Paper Formula 1. Returns kSnrCeilingDb when MSE is zero and
/// -kSnrCeilingDb when the reference signal is identically zero with a
/// non-zero error (degenerate but must not NaN).
[[nodiscard]] double snr_db(const std::vector<double>& theo,
                            const std::vector<double>& exp);

}  // namespace ulpdream::metrics
