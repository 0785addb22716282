// Ablation benches for the design decisions called out in DESIGN.md:
//  D1 - DREAM mask-ID width (1..4 bits): correction ability vs side-memory
//       cost;
//  D2 - BER model (log-linear vs probit): the Fig. 4 shape must be
//       invariant to the calibration family;
//  D3 - logical->physical address scrambling: per-run SNR variance with a
//       *fixed* physical fault map, with and without scrambling.

#include <iostream>

#include "ulpdream/apps/dwt_app.hpp"
#include "ulpdream/campaign/session.hpp"
#include "ulpdream/core/dream.hpp"
#include "ulpdream/ecg/database.hpp"
#include "ulpdream/metrics/quality.hpp"
#include "ulpdream/sim/runner.hpp"
#include "ulpdream/util/cli.hpp"
#include "ulpdream/util/stats.hpp"
#include "ulpdream/util/table.hpp"

using namespace ulpdream;

namespace {

void ablation_d1_mask_width(sim::ExperimentRunner& runner,
                            const ecg::Record& record, std::size_t runs) {
  std::cerr << "[ablations] D1 mask-ID width...\n";
  const apps::DwtApp app;
  const auto ber_model = mem::make_ber_model("log-linear");

  util::Table table("D1 - DREAM mask-ID width vs SNR (DWT)");
  table.set_header({"mask_id_bits", "safe_bits/word", "snr@0.60V_dB",
                    "snr@0.55V_dB", "snr@0.50V_dB"});
  for (int bits = 1; bits <= 4; ++bits) {
    const core::Dream dream(bits);
    std::vector<std::string> row = {std::to_string(bits),
                                    std::to_string(dream.safe_bits())};
    for (const double v : {0.60, 0.55, 0.50}) {
      util::Xoshiro256 rng(991 + static_cast<std::uint64_t>(bits));
      util::RunningStats snr;
      for (std::size_t r = 0; r < runs; ++r) {
        const mem::FaultMap map = mem::FaultMap::random(
            mem::MemoryGeometry::kWords16, 22, ber_model->ber(v), rng);
        snr.add(runner.run_once(app, record, dream, &map, v).snr_db);
      }
      row.push_back(util::fmt(snr.mean(), 1));
    }
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << '\n';
}

void ablation_d2_ber_model(campaign::Session& session, std::size_t runs) {
  std::cerr << "[ablations] D2 BER model family...\n";
  util::Table table("D2 - BER model family: DWT SNR under DREAM");
  table.set_header({"V", "log-linear_dB", "probit_dB"});

  // DWT under DREAM on the default trace, once per BER-model family.
  campaign::CampaignSpec spec;
  spec.apps = {"dwt"};
  spec.emts = {"dream"};
  spec.voltages = {0.5, 0.55, 0.6, 0.65, 0.7, 0.8, 0.9};
  spec.repetitions = runs;

  spec.ber_model = "log-linear";
  const std::vector<campaign::AggregateRow> log_rows =
      session.submit(spec).take().aggregate();
  spec.ber_model = "probit";
  const std::vector<campaign::AggregateRow> probit_rows =
      session.submit(spec).take().aggregate();

  const auto snr = [](const std::vector<campaign::AggregateRow>& rows,
                      double v) {
    return util::fmt(campaign::find_row(rows, "dream", v)->snr_mean_db, 1);
  };
  for (auto it = spec.voltages.rbegin(); it != spec.voltages.rend(); ++it) {
    table.add_row(
        {util::fmt(*it, 2), snr(log_rows, *it), snr(probit_rows, *it)});
  }
  table.print(std::cout);
  std::cout << "  (both families must be monotone with the same knee"
               " region)\n\n";
}

void ablation_d3_scrambling(sim::ExperimentRunner& runner,
                            const ecg::Record& record, std::size_t runs) {
  std::cerr << "[ablations] D3 address scrambling...\n";
  // One FIXED physical fault map; vary only the scrambler seed. Without
  // scrambling every run sees identical corruption (zero variance); with
  // scrambling the map is effectively re-randomized per run — the paper's
  // justification for drawing fresh maps each Monte-Carlo run.
  const apps::DwtApp app;
  const auto ber_model = mem::make_ber_model("log-linear");
  const double v = 0.60;
  util::Xoshiro256 rng(404);
  const mem::FaultMap map = mem::FaultMap::random(
      mem::MemoryGeometry::kWords16, 22, ber_model->ber(v), rng);

  const auto dream = core::make_emt("dream");
  util::RunningStats fixed_snr;
  util::RunningStats scrambled_snr;
  for (std::size_t r = 0; r < runs; ++r) {
    {
      core::MemorySystem sys(*dream);
      sys.attach_faults(&map);
      const auto out = app.run(sys, record);
      fixed_snr.add(metrics::snr_db(runner.reference(app, record), out));
    }
    {
      core::MemorySystem sys(*dream);
      sys.set_scrambler(1000 + r);
      sys.attach_faults(&map);
      const auto out = app.run(sys, record);
      scrambled_snr.add(metrics::snr_db(runner.reference(app, record), out));
    }
  }
  util::Table table("D3 - address scrambling vs run-to-run variance (0.60 V)");
  table.set_header({"mode", "snr_mean_dB", "snr_stddev_dB"});
  table.add_row({"fixed map, no scrambling", util::fmt(fixed_snr.mean(), 2),
                 util::fmt(fixed_snr.stddev(), 3)});
  table.add_row({"fixed map, per-run scrambling",
                 util::fmt(scrambled_snr.mean(), 2),
                 util::fmt(scrambled_snr.stddev(), 3)});
  table.print(std::cout);
  std::cout << "  (no-scrambling variance must be ~0; scrambling restores"
               " map diversity)\n";
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto runs = static_cast<std::size_t>(cli.get_int("runs", 20));
  const ecg::Record record = ecg::make_default_record(7);
  sim::ExperimentRunner runner;
  campaign::Session session = campaign::Session::from_cli(cli);
  ablation_d1_mask_width(runner, record, runs);
  ablation_d2_ber_model(session, runs);
  ablation_d3_scrambling(runner, record, runs);
  return 0;
}
