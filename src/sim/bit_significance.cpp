#include "ulpdream/sim/bit_significance.hpp"

#include <algorithm>

#include "ulpdream/core/no_protection.hpp"
#include "ulpdream/util/stats.hpp"

namespace ulpdream::sim {

BitSignificanceResult run_bit_significance(
    ExperimentRunner& runner, const apps::BioApp& app,
    const std::vector<ecg::Record>& records,
    const BitSignificanceConfig& cfg) {
  BitSignificanceResult result;
  result.app = app.name();

  util::RunningStats max_stats;
  for (const auto& record : records) {
    max_stats.add(runner.max_snr_db(app, record));
  }
  result.max_snr_db = max_stats.mean();

  const core::NoProtection none;
  for (int polarity = 0; polarity < 2; ++polarity) {
    for (int bit = 0; bit < 16; ++bit) {
      const mem::FaultMap map = mem::FaultMap::stuck_bit(
          mem::MemoryGeometry::kWords16, fixed::kSampleBits, bit,
          polarity == 1);
      util::RunningStats stats;
      for (const auto& record : records) {
        const RunResult run = runner.run_once(
            app, record, none, &map, mem::VoltageWindow::kNominal);
        stats.add(run.snr_db);
      }
      result.snr_db[static_cast<std::size_t>(polarity)]
                   [static_cast<std::size_t>(bit)] = stats.mean();
    }
  }

  for (int polarity = 0; polarity < 2; ++polarity) {
    int up_to = -1;
    // Quality requirement: an absolute 40 dB clinical floor, tightened to
    // ceiling - drop for apps whose own error-free ceiling is below it
    // (e.g. lossy CS) so the summary stays meaningful on their scale.
    const double required =
        std::min(40.0, result.max_snr_db - cfg.tolerance_drop_db);
    for (int bit = 0; bit < 16; ++bit) {
      if (result.snr_db[static_cast<std::size_t>(polarity)]
                       [static_cast<std::size_t>(bit)] >= required) {
        up_to = bit;
      } else {
        break;
      }
    }
    result.tolerated_up_to[static_cast<std::size_t>(polarity)] = up_to;
  }
  return result;
}

}  // namespace ulpdream::sim
