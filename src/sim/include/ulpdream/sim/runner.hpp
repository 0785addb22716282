#pragma once
// ExperimentRunner: executes one application run on the simulated device —
// EMT-encoded buffers in the faulty memory, SNR against the application's
// golden reference, access-trace energy integration. This is the
// reproduction of the paper's instrumented VirtualSOC flow (Sec. V).
//
// Cycle model: the node issues one memory transaction per cycle plus one
// compute cycle per access (load-op-store style inner loops), i.e.
// cycles = 2 * data-memory accesses. The side memory is read in parallel
// with the data array (as in the DREAM hardware of Fig. 3) and adds no
// cycles. Leakage is integrated over this run time at 200 MHz.

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ulpdream/apps/app.hpp"
#include "ulpdream/core/factory.hpp"
#include "ulpdream/core/protected_buffer.hpp"
#include "ulpdream/energy/energy_model.hpp"
#include "ulpdream/mem/ber_model.hpp"
#include "ulpdream/mem/fault_map.hpp"

namespace ulpdream::sim {

struct RunResult {
  double snr_db = 0.0;
  energy::EnergyBreakdown energy{};
  core::CodecCounters counters{};
  std::uint64_t data_accesses = 0;
  std::uint64_t side_accesses = 0;
  std::uint64_t cycles = 0;
};

class ExperimentRunner {
 public:
  explicit ExperimentRunner(
      energy::SystemEnergyModel energy_model = energy::SystemEnergyModel());

  /// The SNR reference for (app, record): the app's double-precision
  /// golden model when it has one, otherwise the error-free fixed-point
  /// run. Cached per (app kind, record name). Throws
  /// std::invalid_argument, naming the app, the record and both lengths,
  /// when the record holds fewer than app.input_length() samples; so do
  /// run_once() and max_snr_db(), which fetch it first.
  [[nodiscard]] const std::vector<double>& reference(
      const apps::BioApp& app, const ecg::Record& record);

  /// One run of `app` under `emt` with `faults` attached (may be null for
  /// an error-free run). `v` is the data-array supply for the energy
  /// model; fault content must already be consistent with it.
  ///
  /// A map with no entry below app.footprint_words() changes no bit the
  /// run reads. Such a call, and a null-map call, is answered from this
  /// runner's cached fault-free run of (app, record, EMT) when there is
  /// one: energy is recomputed at `v`, the map is validated as
  /// attach_faults() would, and the cached run's codec.<emt>.* tally is
  /// added to telemetry again, so every total equals that of a real run.
  /// Otherwise the run executes, and a clean one fills the cache. An
  /// executed run that allocates past app.footprint_words() throws
  /// std::logic_error naming the app. Counters: sim.clean_runs (non-null
  /// maps clean below the footprint) and sim.clean_runs_reused (calls
  /// answered from the cache).
  [[nodiscard]] RunResult run_once(const apps::BioApp& app,
                                   const ecg::Record& record,
                                   const core::Emt& emt,
                                   const mem::FaultMap* faults, double v);

  /// Maximum SNR ("dashed line" of Fig. 4): error-free fixed-point run
  /// against the golden reference.
  [[nodiscard]] double max_snr_db(const apps::BioApp& app,
                                  const ecg::Record& record);

  [[nodiscard]] const energy::SystemEnergyModel& energy_model() const {
    return energy_model_;
  }

 private:
  /// What an executed run leaves for its RunResult, apart from the
  /// energy, which is computed from it at the call's voltage.
  struct RunRecord {
    double snr_db = 0.0;
    core::CodecCounters counters{};
    mem::AccessStats data_stats;
    std::optional<mem::AccessStats> side_stats;
    std::size_t data_words = 0;
  };
  /// A cached fault-free run, with the tally it added to codec.<emt>.*
  /// and the handles a hit adds that tally through.
  struct CleanRun {
    RunRecord run;
    core::MemorySystem::Tally tally;
    core::MemorySystem::CodecTelemetry telemetry;
  };
  struct Reference {
    std::vector<double> values;
    bool clean_run = false;  ///< values are the error-free fixed-point run
    /// Fault-free runs of this (app, record), keyed by EMT name.
    std::unordered_map<std::string, CleanRun> clean_runs;
  };
  Reference& cached_reference(const apps::BioApp& app,
                              const ecg::Record& record);
  [[nodiscard]] RunResult result_at(const RunRecord& run,
                                    const core::Emt& emt, double v) const;

  energy::SystemEnergyModel energy_model_;
  // Keyed on (app identity, record identity); node-based map so returned
  // references stay valid across inserts. Campaigns look the reference up
  // once per run over grids of thousands of cells — a linear scan here
  // made large campaigns quadratic in distinct (app, record) pairs. Each
  // entry also holds the (app, record)'s fault-free runs per EMT, which
  // run_once() reuses. A runner is not thread-safe; each worker owns one
  // (a copy starts with every cached entry of the original).
  std::unordered_map<std::string, Reference> cache_;
};

}  // namespace ulpdream::sim
