#include "ulpdream/campaign/policy_explorer.hpp"

#include <algorithm>
#include <stdexcept>
#include <string_view>

#include "ulpdream/mem/ber_model.hpp"

namespace ulpdream::campaign {

PolicyResult explore_policy(std::span<const AggregateRow> rows,
                            double max_snr_db, double threshold_db,
                            QualityCriterion criterion,
                            QualityStatistic statistic) {
  PolicyResult result;
  result.tolerance_db = threshold_db;
  result.required_snr_db = criterion == QualityCriterion::kRelativeDrop
                               ? max_snr_db - threshold_db
                               : threshold_db;
  const auto quality = [statistic](const AggregateRow& r) {
    return statistic == QualityStatistic::kMean ? r.snr_mean_db
                                                : r.snr_p10_db;
  };

  const AggregateRow* nominal =
      find_row(rows, "none", mem::VoltageWindow::kNominal);
  if (nominal == nullptr) {
    throw std::invalid_argument(
        "explore_policy: rows lack the nominal unprotected point");
  }
  result.nominal_energy_j = nominal->energy_mean_j;

  // EMTs in row order; the voltage grid sorted ascending.
  std::vector<std::string_view> emts;
  std::vector<double> voltages;
  for (const AggregateRow& r : rows) {
    if (std::find(emts.begin(), emts.end(), r.emt) == emts.end()) {
      emts.push_back(r.emt);
    }
    voltages.push_back(r.voltage);
  }
  std::sort(voltages.begin(), voltages.end());
  voltages.erase(std::unique(voltages.begin(), voltages.end()),
                 voltages.end());

  for (const std::string_view emt : emts) {
    EmtOperatingPoint op;
    op.emt = emt;
    // Deepest voltage such that SNR stays within tolerance at that point
    // and at every shallower point (monotone safety: the policy sweeps the
    // voltage through the range).
    bool all_above = true;
    for (auto it = voltages.rbegin(); it != voltages.rend(); ++it) {
      const AggregateRow* p = find_row(rows, emt, *it);
      if (p == nullptr) continue;
      all_above = all_above && (quality(*p) >= result.required_snr_db);
      if (all_above) {
        op.min_safe_voltage = *it;
        op.snr_at_floor_db = quality(*p);
        op.energy_at_floor_j = p->energy_mean_j;
        op.feasible = true;
      } else {
        break;
      }
    }
    if (op.feasible && result.nominal_energy_j > 0.0) {
      op.savings_vs_nominal_frac =
          1.0 - op.energy_at_floor_j / result.nominal_energy_j;
    }
    result.points.push_back(op);
  }

  // Derive the triggering ranges: each EMT covers from its floor up to
  // the floor of the next-weaker technique. "Weaker" is defined by the
  // data — shallower voltage floor (none → dream → ecc on the paper's
  // grids) — so the ladder is independent of the order the rows happen
  // to list the EMTs. When two techniques reach the same floor, the
  // cheaper one at that floor owns the band (the policy minimizes
  // protection overhead); the name is the last-resort determinism tie.
  std::vector<const EmtOperatingPoint*> ladder;
  for (const auto& p : result.points) {
    if (p.feasible) ladder.push_back(&p);
  }
  std::sort(ladder.begin(), ladder.end(),
            [](const EmtOperatingPoint* a, const EmtOperatingPoint* b) {
              if (a->min_safe_voltage != b->min_safe_voltage) {
                return a->min_safe_voltage > b->min_safe_voltage;
              }
              if (a->energy_at_floor_j != b->energy_at_floor_j) {
                return a->energy_at_floor_j < b->energy_at_floor_j;
              }
              return a->emt < b->emt;
            });
  // Feasible "none" always heads the ladder: nominal operation needs no
  // protection, so no codec may claim the top band above the unprotected
  // floor — even one whose own floor sits higher (a technique feasible
  // only near nominal must not be triggered where "none" suffices).
  const auto none_it =
      std::find_if(ladder.begin(), ladder.end(),
                   [](const EmtOperatingPoint* p) { return p->emt == "none"; });
  if (none_it != ladder.end()) {
    std::rotate(ladder.begin(), none_it, none_it + 1);
  }

  double upper = mem::VoltageWindow::kNominal + 1e-9;
  for (const EmtOperatingPoint* p : ladder) {
    if (p->min_safe_voltage >= upper) continue;
    result.policy.add_range(p->min_safe_voltage, upper, p->emt);
    upper = p->min_safe_voltage;
  }
  return result;
}

}  // namespace ulpdream::campaign
