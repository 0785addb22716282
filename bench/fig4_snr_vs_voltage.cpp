// Reproduces Fig. 4 (a, b, c): output SNR vs data-memory supply voltage
// for (a) no protection, (b) DREAM, (c) ECC SEC/DED, for all five
// applications. Paper protocol: 0.9 -> 0.5 V, 200 random fault maps per
// point, maps shared across EMTs, mean SNR reported; the dashed line is
// the error-free (quantization/lossy-limited) maximum SNR.

#include <iostream>

#include "ulpdream/apps/app.hpp"
#include "ulpdream/campaign/session.hpp"
#include "ulpdream/ecg/database.hpp"
#include "ulpdream/metrics/quality.hpp"
#include "ulpdream/util/cli.hpp"
#include "ulpdream/util/table.hpp"

using namespace ulpdream;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto record_seed =
      static_cast<std::uint64_t>(cli.get_int("record-seed", 7));
  campaign::CampaignSpec spec;
  spec.apps = apps::paper_app_names();
  spec.emts = core::paper_emt_names();
  spec.records = {campaign::RecordAxis{ecg::Pathology::kNormalSinus, 1.0,
                                       record_seed}};
  spec.repetitions = static_cast<std::size_t>(cli.get_int("runs", 200));
  spec.seed = static_cast<std::uint64_t>(cli.get_int("seed", 2016));
  spec.ber_model = cli.get("ber-model", "log-linear");
  spec = spec.normalized();

  campaign::Session session = campaign::Session::from_cli(cli);
  std::cerr << "[fig4] sweeping " << spec.voltages.size() << " voltages x "
            << spec.repetitions << " runs x " << spec.apps.size()
            << " apps x " << spec.emts.size() << " EMTs on up to "
            << session.threads() << " threads...\n";
  const campaign::ResultStore store = session.submit(spec).take();
  std::vector<sim::SweepResult> results;
  for (std::size_t ai = 0; ai < spec.apps.size(); ++ai) {
    results.push_back(store.to_sweep_result(0, ai));
  }

  const char* panel_names[] = {"(a) No protection", "(b) DREAM",
                               "(c) ECC SEC/DED"};
  for (std::size_t ei = 0; ei < spec.emts.size(); ++ei) {
    util::Table table(std::string("Fig. 4 ") + panel_names[ei] +
                      " - mean SNR [dB] vs supply voltage");
    std::vector<std::string> header = {"V"};
    for (const auto& r : results) {
      header.push_back(r.points.front().app);
    }
    table.set_header(header);
    for (auto v_it = spec.voltages.rbegin(); v_it != spec.voltages.rend();
         ++v_it) {
      std::vector<std::string> row = {util::fmt(*v_it, 2)};
      for (const auto& r : results) {
        const sim::SweepPoint* p = r.find(spec.emts[ei], *v_it);
        row.push_back(p ? util::fmt(p->snr_mean_db, 1) : "-");
      }
      table.add_row(row);
    }
    table.print(std::cout);
    std::cout << '\n';
    (void)table.write_csv(std::string("fig4_") + spec.emts[ei] + ".csv");
  }

  util::Table dashed("Fig. 4 dashed lines - max SNR (error-free) [dB]");
  dashed.set_header({"app", "max_snr_db"});
  for (const auto& r : results) {
    dashed.add_row({r.points.front().app,
                    util::fmt(r.max_snr_db, 1)});
  }
  dashed.print(std::cout);

  // The paper's CS dashed line is vs the *original* signal ("CS is, by
  // construction, a lossy compression algorithm"): report that ceiling
  // separately. Ours is lower than the paper's ~85 dB because we
  // reconstruct a single lead with plain OMP instead of multi-lead joint
  // reconstruction (see EXPERIMENTS.md).
  {
    const auto cs_app = apps::make_app("cs");
    const ecg::Record record = ecg::make_default_record(record_seed);
    const auto ideal = cs_app->ideal_output(record);
    std::vector<double> original(cs_app->input_length());
    for (std::size_t i = 0; i < original.size(); ++i) {
      original[i] = static_cast<double>(record.samples[i]);
    }
    std::cout << "\nCS lossy-compression ceiling vs original signal: "
              << util::fmt(metrics::snr_db(original, *ideal), 1)
              << " dB (paper: ~85 dB with multi-lead joint"
                 " reconstruction)\n";
  }

  // Paper shape checks.
  std::cout << "\nShape checks (dwt):\n";
  const sim::SweepResult& dwt = results[0];
  const double none_065 = dwt.find("none", 0.65)->snr_mean_db;
  const double dream_065 = dwt.find("dream", 0.65)->snr_mean_db;
  const double ecc_060 =
      dwt.find("ecc_secded", 0.60)->snr_mean_db;
  const double dream_060 = dwt.find("dream", 0.60)->snr_mean_db;
  const double ecc_050 =
      dwt.find("ecc_secded", 0.50)->snr_mean_db;
  const double dream_050 = dwt.find("dream", 0.50)->snr_mean_db;
  std::cout << "  protection helps at 0.65 V: "
            << (dream_065 > none_065 + 3.0 ? "PASS" : "FAIL") << '\n';
  std::cout << "  ECC competitive in 0.55-0.65 V band: "
            << (ecc_060 > dream_060 - 5.0 ? "PASS" : "FAIL") << '\n';
  std::cout << "  DREAM >= ECC at 0.50 V (multi-bit words): "
            << (dream_050 >= ecc_050 - 1.0 ? "PASS" : "FAIL") << '\n';
  return 0;
}
