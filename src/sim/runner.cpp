#include "ulpdream/sim/runner.hpp"

#include <stdexcept>

#include "ulpdream/core/no_protection.hpp"
#include "ulpdream/metrics/quality.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace ulpdream::sim {

ExperimentRunner::ExperimentRunner(energy::SystemEnergyModel energy_model)
    : energy_model_(energy_model) {}

const std::vector<double>& ExperimentRunner::reference(
    const apps::BioApp& app, const ecg::Record& record) {
  return cached_reference(app, record).values;
}

ExperimentRunner::Reference& ExperimentRunner::cached_reference(
    const apps::BioApp& app, const ecg::Record& record) {
  // Key by value-identity, not object address: apps are routinely created
  // and destroyed per experiment, and a recycled heap address must not hit
  // a stale cache entry.
  const std::string key = app.name() + "#" +
                          std::to_string(app.input_length()) + "#" +
                          std::to_string(app.footprint_words()) + "|" +
                          record.name + "#" +
                          std::to_string(record.samples.size());
  if (const auto it = cache_.find(key); it != cache_.end()) {
    return it->second;
  }
  Reference reference;
  if (auto ideal = app.ideal_output(record)) {
    reference.values = std::move(*ideal);
  } else {
    // Error-free fixed-point run as the reference.
    core::NoProtection none;
    core::MemorySystem system(none);
    reference.values = app.run(system, record);
    reference.clean_run = true;
  }
  return cache_.emplace(key, std::move(reference)).first->second;
}

RunResult ExperimentRunner::result_at(const RunRecord& run,
                                      const core::Emt& emt, double v) const {
  RunResult result;
  result.snr_db = run.snr_db;
  result.counters = run.counters;
  result.data_accesses = run.data_stats.total();
  if (run.side_stats) result.side_accesses = run.side_stats->total();
  result.cycles = 2 * result.data_accesses;
  result.energy = energy_model_.compute(
      emt, v, run.data_stats, run.side_stats ? &*run.side_stats : nullptr,
      run.data_words, result.cycles);
  return result;
}

RunResult ExperimentRunner::run_once(const apps::BioApp& app,
                                     const ecg::Record& record,
                                     const core::Emt& emt,
                                     const mem::FaultMap* faults, double v) {
  static const util::telemetry::Counter clean_runs("sim.clean_runs");
  static const util::telemetry::Counter clean_runs_reused(
      "sim.clean_runs_reused");
  // Apps bump-allocate from word 0, every access is bounds-checked, this
  // memory is never scrambled and the side memory is error-free, so a map
  // with no entry below the footprint changes no bit the run reads.
  const std::size_t footprint = app.footprint_words();
  const bool clean = faults == nullptr || faults->clean_below(footprint);
  if (clean && faults != nullptr) clean_runs.add();
  Reference& ref = cached_reference(app, record);
  std::string emt_name;
  if (clean) {
    emt_name = emt.name();
    if (const auto it = ref.clean_runs.find(emt_name);
        it != ref.clean_runs.end()) {
      const CleanRun& hit = it->second;
      if (faults != nullptr) {
        mem::FaultyMemory::check_covers(*faults, hit.run.data_words,
                                        emt.payload_bits());
      }
      hit.telemetry.add(hit.tally);
      clean_runs_reused.add();
      return result_at(hit.run, emt, v);
    }
  }

  core::MemorySystem system(emt);
  system.attach_faults(faults);
  const std::vector<double> output = app.run(system, record);
  if (system.peak_words_allocated() > footprint) {
    throw std::logic_error(
        app.name() + ": allocated " +
        std::to_string(system.peak_words_allocated()) +
        " words, past footprint_words() = " + std::to_string(footprint));
  }

  RunRecord run;
  run.snr_db = metrics::snr_db(ref.values, output);
  run.counters = system.counters();
  run.data_stats = system.data().stats();
  if (const auto* safe = system.safe()) run.side_stats = safe->stats();
  run.data_words = system.data().words();
  if (clean) {
    ref.clean_runs.emplace(
        emt_name,
        CleanRun{run, system.tally(),
                 core::MemorySystem::make_codec_telemetry(emt_name)});
  }
  return result_at(run, emt, v);
}

RunResult ExperimentRunner::run_once(const apps::BioApp& app,
                                     const ecg::Record& record,
                                     const std::string& emt_name,
                                     const mem::FaultMap* faults, double v) {
  const auto emt = core::make_emt(emt_name);
  return run_once(app, record, *emt, faults, v);
}

RunResult ExperimentRunner::run_once(const apps::BioApp& app,
                                     const ecg::Record& record,
                                     core::EmtKind kind,
                                     const mem::FaultMap* faults, double v) {
  return run_once(app, record, core::emt_kind_name(kind), faults, v);
}

double ExperimentRunner::max_snr_db(const apps::BioApp& app,
                                    const ecg::Record& record) {
  // Without a golden model the reference already is the error-free run
  // (deterministic), so the ceiling compares it with itself.
  const Reference& ref = cached_reference(app, record);
  if (ref.clean_run) return metrics::snr_db(ref.values, ref.values);
  const core::NoProtection none;
  const RunResult clean = run_once(app, record, none, /*faults=*/nullptr,
                                   mem::VoltageWindow::kNominal);
  return clean.snr_db;
}

}  // namespace ulpdream::sim
