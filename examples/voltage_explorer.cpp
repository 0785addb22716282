// Interactive trade-off exploration: sweep the data-memory supply for one
// application and print SNR + energy per EMT — the tool a system designer
// would use to pick the operating point (paper Sec. VI-C methodology).
// Runs on a campaign::Session: the voltage axis, execution and
// aggregation all come from ulpdream::campaign instead of a hand-rolled
// sweep loop.
//
// Usage:
//   voltage_explorer [--app dwt|matrix_filter|cs|morph_filter|delineation
//                           (or a comma list; each app gets its own policy)]
//                    [--runs 30] [--vmin 0.5] [--vmax 0.9] [--step 0.05]
//                    [--ber-model log-linear|probit] [--tolerance-db 1]
//                    [--csv out.csv]
//                    [--threads N]   (0 = all hardware threads)

#include <fstream>
#include <iostream>
#include <string>

#include "ulpdream/campaign/policy_explorer.hpp"
#include "ulpdream/campaign/session.hpp"
#include "ulpdream/util/cli.hpp"
#include "ulpdream/util/table.hpp"

using namespace ulpdream;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);

  campaign::CampaignSpec spec;
  spec.apps = campaign::parse_app_list(cli.get("app", "dwt"));
  spec.emts = core::paper_emt_names();
  spec.voltages = campaign::CampaignSpec::voltage_range(
      cli.get_double("vmin", 0.5), cli.get_double("vmax", 0.9),
      cli.get_double("step", 0.05));
  spec.records = {campaign::RecordAxis{
      ecg::Pathology::kNormalSinus, 1.0,
      static_cast<std::uint64_t>(cli.get_int("seed", 7))}};
  spec.repetitions = static_cast<std::size_t>(cli.get_int("runs", 30));
  spec.ber_model = cli.get("ber-model", "log-linear");

  campaign::Session session = campaign::Session::from_cli(cli);
  std::cerr << "sweeping " << spec.apps.size() << " app(s) over ["
            << spec.voltages.front() << ", " << spec.voltages.back()
            << "] V, " << spec.repetitions << " runs/point on up to "
            << session.threads() << " threads...\n";
  const campaign::ResultStore store = session.submit(spec).take();

  const auto rows = store.aggregate();
  campaign::rows_to_table(rows, "SNR / energy per EMT and voltage")
      .print(std::cout);
  if (const std::string path = cli.get("csv", ""); !path.empty()) {
    std::ofstream f(path);
    campaign::write_rows_csv(f, rows);
    if (!f) {
      std::cerr << "FAILED to write " << path << '\n';
      return 1;
    }
    std::cerr << "wrote " << path << '\n';
  }

  const double tolerance = cli.get_double("tolerance-db", 1.0);
  for (std::size_t ai = 0; ai < spec.apps.size(); ++ai) {
    const double max_snr = store.max_snr_db(0, ai);
    std::cout << "\n" << spec.apps[ai]
              << " (max SNR error-free: " << util::fmt(max_snr, 1)
              << " dB), with a -" << tolerance << " dB tolerance:\n";
    const campaign::PolicyResult policy = campaign::explore_policy(
        campaign::app_slice(store.spec(), rows, 0, ai), max_snr, tolerance);
    for (const auto& p : policy.points) {
      if (!p.feasible) {
        std::cout << "  " << p.emt << ": infeasible\n";
        continue;
      }
      std::cout << "  " << p.emt << ": safe down to "
                << util::fmt(p.min_safe_voltage, 2) << " V, saving "
                << util::fmt(p.savings_vs_nominal_frac * 100.0, 1)
                << "% vs nominal unprotected\n";
    }
  }
  return 0;
}
