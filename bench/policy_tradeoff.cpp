// Reproduces Sec. VI-C: quality-constrained voltage/EMT policy for the DWT
// application with a -1 dB output-degradation tolerance. Paper result:
// three triggering ranges (~[0.9;0.85] none, [0.85;0.65] DREAM,
// [0.65;0.55] ECC) saving up to 12.7% / 30.6% / 39.5% vs nominal-voltage
// unprotected operation.

#include <iostream>

#include "ulpdream/campaign/policy_explorer.hpp"
#include "ulpdream/campaign/session.hpp"
#include "ulpdream/util/cli.hpp"
#include "ulpdream/util/table.hpp"

using namespace ulpdream;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);

  // The Sec. VI-C grid as a declarative campaign: DWT x all paper EMTs x
  // the full voltage window on the default trace.
  campaign::CampaignSpec spec;
  spec.apps = {"dwt"};
  spec.emts = core::paper_emt_names();
  spec.records = {campaign::RecordAxis{ecg::Pathology::kNormalSinus, 1.0, 7}};
  spec.repetitions = static_cast<std::size_t>(cli.get_int("runs", 100));
  spec.seed = static_cast<std::uint64_t>(cli.get_int("seed", 2016));
  const double tolerance = cli.get_double("tolerance-db", 1.0);

  const double min_snr = cli.get_double("min-snr-db", 40.0);

  campaign::Session session = campaign::Session::from_cli(cli);
  std::cerr << "[policy] sweeping DWT, " << spec.repetitions
            << " runs/point on up to " << session.threads() << " threads...\n";
  const campaign::ResultStore store = session.submit(spec).take();
  const std::vector<campaign::AggregateRow> rows = store.aggregate();
  const double max_snr = store.max_snr_db(0, 0);

  const auto print_policy = [&](const campaign::PolicyResult& policy,
                                const std::string& title,
                                const char* const paper_savings[3]) {
    std::cout << title << " (requirement: "
              << util::fmt(policy.required_snr_db, 2) << " dB)\n";
    util::Table ops("Per-EMT operating points (DWT)");
    ops.set_header({"emt", "min_safe_V", "snr_at_floor_dB", "energy_uJ",
                    "savings_%", "paper_savings_%"});
    int i = 0;
    for (const auto& p : policy.points) {
      ops.add_row(
          {p.emt,
           p.feasible ? util::fmt(p.min_safe_voltage, 2) : "infeasible",
           util::fmt(p.snr_at_floor_db, 1),
           util::fmt(p.energy_at_floor_j * 1e6, 4),
           util::fmt(p.savings_vs_nominal_frac * 100.0, 1),
           paper_savings[i++]});
    }
    ops.print(std::cout);
    util::Table ranges("Derived EMT-triggering voltage ranges");
    ranges.set_header({"v_low", "v_high", "emt"});
    for (const auto& r : policy.policy.ranges()) {
      ranges.add_row({util::fmt(r.v_low, 2), util::fmt(r.v_high, 2), r.emt});
    }
    ranges.print(std::cout);
    std::cout << '\n';
  };

  std::cout << "Max SNR (error-free fixed-point vs double-precision): "
            << util::fmt(max_snr, 2) << " dB\n\n";

  // Criterion 1: the paper's literal "-1 dB from max" tolerance. NOTE:
  // our fixed-point DWT has a higher quantization ceiling than the
  // paper's implementation, which makes this criterion stricter here —
  // see EXPERIMENTS.md for the discussion.
  const char* paper_rel[] = {"12.7", "30.6", "39.5"};
  const campaign::PolicyResult relative = campaign::explore_policy(
      rows, max_snr, tolerance, campaign::QualityCriterion::kRelativeDrop);
  print_policy(relative,
               "Criterion A - relative: max SNR - " +
                   util::fmt(tolerance, 1) + " dB (paper Sec. VI-C form)",
               paper_rel);

  // Criterion 2: absolute clinical quality floor (paper Sec. III cites
  // 35-40 dB as the reconstruction-quality requirement for ECG) on the
  // P10 statistic — "reliable medical output": 90% of runs must comply.
  const char* paper_abs[] = {"12.7", "30.6", "39.5"};
  const campaign::PolicyResult absolute = campaign::explore_policy(
      rows, max_snr, min_snr, campaign::QualityCriterion::kAbsoluteSnr,
      campaign::QualityStatistic::kP10);
  print_policy(absolute,
               "Criterion B - reliable: P10 SNR >= " + util::fmt(min_snr, 0) +
                   " dB (clinical requirement form)",
               paper_abs);

  const auto savings = [](const campaign::PolicyResult& p,
                          const std::string& k) {
    for (const auto& op : p.points) {
      if (op.emt == k && op.feasible) return op.savings_vs_nominal_frac;
    }
    return -1.0;
  };
  const auto floor_v = [](const campaign::PolicyResult& p,
                          const std::string& k) {
    for (const auto& op : p.points) {
      if (op.emt == k && op.feasible) return op.min_safe_voltage;
    }
    return 1.0;
  };
  const double a_none = savings(absolute, "none");
  const double a_dream = savings(absolute, "dream");
  const double a_ecc = savings(absolute, "ecc_secded");
  const double r_none = savings(relative, "none");
  std::cout << "Shape checks:\n";
  std::cout << "  relative criterion: unprotected floor ~0.85 V, ~12% saving"
               " (paper 12.7%): "
            << (std::abs(r_none - 0.127) < 0.05 ? "PASS" : "FAIL") << '\n';
  std::cout << "  protection unlocks deeper voltage floors"
               " (ecc <= dream < none): "
            << ((floor_v(absolute, "ecc_secded") <=
                 floor_v(absolute, "dream")) &&
                        (floor_v(absolute, "dream") <
                         floor_v(absolute, "none"))
                    ? "PASS"
                    : "FAIL")
            << '\n';
  std::cout << "  absolute criterion: all three EMTs feasible with positive"
               " savings: "
            << ((a_none > 0 && a_dream > 0 && a_ecc > 0) ? "PASS" : "FAIL")
            << '\n';
  return 0;
}
