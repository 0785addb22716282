#pragma once
// Sec. VI-C experiment: quality-constrained voltage/EMT policy search.
// Given one application's aggregate rows and an output-degradation
// tolerance (the paper uses -1 dB for DWT), find for each EMT the deepest
// voltage whose mean SNR still meets the requirement, derive the
// triggering ranges and the energy saved at each range's floor relative
// to nominal-voltage unprotected operation.

#include <span>
#include <string>
#include <vector>

#include "ulpdream/campaign/result_store.hpp"
#include "ulpdream/core/adaptive.hpp"

namespace ulpdream::campaign {

struct EmtOperatingPoint {
  std::string emt;  ///< registry name
  double min_safe_voltage = 0.0;  ///< deepest V meeting the requirement
  double snr_at_floor_db = 0.0;
  double energy_at_floor_j = 0.0;
  double savings_vs_nominal_frac = 0.0;  ///< 1 - E(floor)/E(0.9, none)
  bool feasible = false;
};

struct PolicyResult {
  double tolerance_db = 1.0;
  double required_snr_db = 0.0;
  double nominal_energy_j = 0.0;  ///< E(0.9 V, no protection)
  std::vector<EmtOperatingPoint> points;
  core::AdaptivePolicy policy;  ///< derived voltage-range policy
};

/// Quality criterion for the voltage floor search.
///  - kRelativeDrop: mean SNR must stay within `threshold_db` of the
///    error-free maximum (the paper's "-1 dB" DWT example). Strict when
///    the implementation's quantization ceiling is high.
///  - kAbsoluteSnr: mean SNR must stay above `threshold_db` outright (the
///    clinical-requirement form; the paper uses 35/40 dB for CS quality).
enum class QualityCriterion { kRelativeDrop, kAbsoluteSnr };

/// Which SNR statistic the requirement is evaluated on:
///  - kMean: the paper's plotted statistic (average of the Monte-Carlo
///    runs). Forgiving: a few catastrophic runs barely move it.
///  - kP10: 10th percentile — 90% of runs must meet the requirement. The
///    "reliable medical output" reading of Sec. VI-C; this is the
///    statistic that reproduces the paper's range ordering robustly.
enum class QualityStatistic { kMean, kP10 };

/// Derives the policy from one application's rows, usually a (record,
/// app) slice of full-GroupBy aggregate() rows (app_slice), and that
/// slice's error-free ceiling (ResultStore::max_snr_db). EMTs are taken
/// in row order, voltages from the rows. The rows must hold the "none"
/// EMT at nominal voltage (the savings baseline); std::invalid_argument
/// otherwise.
[[nodiscard]] PolicyResult explore_policy(
    std::span<const AggregateRow> rows, double max_snr_db,
    double threshold_db,
    QualityCriterion criterion = QualityCriterion::kRelativeDrop,
    QualityStatistic statistic = QualityStatistic::kMean);

}  // namespace ulpdream::campaign
