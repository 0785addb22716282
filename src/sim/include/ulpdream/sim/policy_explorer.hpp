#pragma once
// Sec. VI-C experiment: quality-constrained voltage/EMT policy search.
// Given an application's sweep results and an output-degradation tolerance
// (the paper uses -1 dB for DWT), find for each EMT the deepest voltage
// whose mean SNR still meets the requirement, derive the triggering ranges
// and the energy saved at each range's floor relative to nominal-voltage
// unprotected operation.

#include <string>
#include <string_view>
#include <vector>

#include "ulpdream/core/adaptive.hpp"
#include "ulpdream/energy/energy_model.hpp"

namespace ulpdream::sim {

/// Monte-Carlo statistics of one (app, EMT, voltage) cell.
struct SweepPoint {
  std::string app;  ///< registry names
  std::string emt;
  double voltage = 0.0;
  double ber = 0.0;
  double snr_mean_db = 0.0;
  double snr_stddev_db = 0.0;
  double snr_min_db = 0.0;
  /// 10th-percentile SNR across the Monte-Carlo runs: the "reliable
  /// medical output" statistic (90% of runs do at least this well).
  double snr_p10_db = 0.0;
  double energy_mean_j = 0.0;
  energy::EnergyBreakdown energy_mean{};
  double corrected_words_mean = 0.0;
  double detected_uncorrectable_mean = 0.0;
};

/// One application's voltage sweep — the explorer's input, usually a
/// (record, app) slice of a campaign store
/// (campaign::ResultStore::to_sweep_result).
struct SweepResult {
  std::vector<double> voltages;
  std::vector<std::string> emts;  ///< registry names
  double max_snr_db = 0.0;  ///< per-app dashed line (clean fixed vs golden)
  std::vector<SweepPoint> points;

  [[nodiscard]] const SweepPoint* find(std::string_view emt, double v) const;
};

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

/// Derives the policy from a completed sweep. The sweep must contain the
/// kNone EMT at nominal voltage (used as the savings baseline).
[[nodiscard]] PolicyResult explore_policy(
    const SweepResult& sweep, double threshold_db,
    QualityCriterion criterion = QualityCriterion::kRelativeDrop,
    QualityStatistic statistic = QualityStatistic::kMean);

}  // namespace ulpdream::sim
