// Full WBSN node pipeline (the block scheme of the paper's Fig. 1):
//   synthetic ECG acquisition -> morphological filtering (denoise)
//   -> wavelet delineation (P/Q/R/S/T) -> compressed sensing (transmit)
// running on the voltage-scaled data memory with the EMT chosen by the
// adaptive policy of Sec. VI-C. Prints per-stage quality and the energy
// breakdown at the selected operating point.
//
// Usage: wbsn_pipeline [--voltage 0.7] [--seed 5]

#include <iostream>

#include "ulpdream/apps/cs_app.hpp"
#include "ulpdream/apps/delineation_app.hpp"
#include "ulpdream/apps/morph_filter_app.hpp"
#include "ulpdream/core/adaptive.hpp"
#include "ulpdream/core/factory.hpp"
#include "ulpdream/ecg/database.hpp"
#include "ulpdream/mem/ber_model.hpp"
#include "ulpdream/metrics/quality.hpp"
#include "ulpdream/sim/runner.hpp"
#include "ulpdream/util/cli.hpp"
#include "ulpdream/util/table.hpp"

using namespace ulpdream;

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const double voltage = cli.get_double("voltage", 0.70);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 5));

  // Acquire: a PVC-laden record to make delineation interesting.
  ecg::GeneratorConfig gen;
  gen.pathology = ecg::Pathology::kPvcBigeminy;
  gen.seed = seed;
  const ecg::Record record = ecg::generate_record(gen);
  std::cout << "Record: " << record.name << ", "
            << record.samples.size() << " samples @ " << record.fs_hz
            << " Hz, " << record.r_locations.size() << " beats\n";

  // The adaptive policy picks the EMT (by registry name) for this supply
  // voltage.
  const core::AdaptivePolicy policy = core::AdaptivePolicy::paper_dwt_policy();
  const std::string emt_name = policy.select(voltage);
  std::cout << "Supply " << voltage << " V -> policy selects EMT: "
            << emt_name << "\n\n";
  const auto emt = core::make_emt(emt_name);

  // Fault environment for this voltage.
  const auto ber_model = mem::make_ber_model("log-linear");
  util::Xoshiro256 rng(seed);
  const mem::FaultMap faults = mem::FaultMap::random(
      mem::MemoryGeometry::kWords16, 22, ber_model->ber(voltage), rng);

  sim::ExperimentRunner runner;
  util::Table table("Pipeline stages under scaled voltage");
  table.set_header({"stage", "snr_dB", "energy_uJ", "corrected_words"});

  // Stage 1: morphological filtering.
  const apps::MorphFilterApp morph;
  const sim::RunResult morph_r =
      runner.run_once(morph, record, *emt, &faults, voltage);
  table.add_row({"morph_filter", util::fmt(morph_r.snr_db, 1),
                 util::fmt(morph_r.energy.total_j() * 1e6, 4),
                 std::to_string(morph_r.counters.corrected_words)});

  // Stage 2: delineation — also score against the generator ground truth.
  const apps::DelineationApp delineator;
  const sim::RunResult delin_r =
      runner.run_once(delineator, record, *emt, &faults, voltage);
  core::MemorySystem delin_sys(*emt);
  delin_sys.attach_faults(&faults);
  const metrics::FiducialList detected =
      delineator.delineate(delin_sys, record);
  metrics::FiducialList truth_r;
  for (const auto& f : record.truth) {
    if (f.type == metrics::FiducialType::kR && f.position < 2048) {
      truth_r.push_back(f);
    }
  }
  metrics::FiducialList detected_r;
  for (const auto& f : detected) {
    if (f.type == metrics::FiducialType::kR) detected_r.push_back(f);
  }
  const metrics::MatchScore score =
      metrics::match_fiducials(truth_r, detected_r, 12);
  table.add_row({"delineation", util::fmt(delin_r.snr_db, 1),
                 util::fmt(delin_r.energy.total_j() * 1e6, 4),
                 std::to_string(delin_r.counters.corrected_words)});

  // Stage 3: compressed sensing for transmission.
  const apps::CsApp cs_app;
  const sim::RunResult cs_r =
      runner.run_once(cs_app, record, *emt, &faults, voltage);
  table.add_row({"compressed_sensing", util::fmt(cs_r.snr_db, 1),
                 util::fmt(cs_r.energy.total_j() * 1e6, 4),
                 std::to_string(cs_r.counters.corrected_words)});

  table.print(std::cout);

  std::cout << "\nR-peak detection under faults: sensitivity = "
            << util::fmt(score.sensitivity() * 100.0, 1)
            << "%, PPV = " << util::fmt(score.ppv() * 100.0, 1) << "%\n";

  const double nominal = runner
                             .run_once(morph, record, *core::make_emt("none"),
                                       nullptr, mem::VoltageWindow::kNominal)
                             .energy.total_j();
  std::cout << "Energy vs nominal unprotected (morph stage): "
            << util::fmt((1.0 - morph_r.energy.total_j() / nominal) * 100.0,
                         1)
            << "% saved\n";
  return 0;
}
