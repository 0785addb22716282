#pragma once
// Scenario — the single-entry-point facade of the library. Pick
// applications, EMTs and a BER model by registry name, set the voltage
// grid, the record corpus and its generation geometry, and run(): the
// scenario expands into a CampaignSpec, executes on a campaign::Session
// (bit-identical for any thread count) and returns the aggregated grid.
// Names are validated eagerly against the registries, so a typo fails at
// build_spec() time with the valid names listed — including any
// component the caller registered from outside src/.
//
//   auto rows = ulpdream::campaign::Scenario()
//                   .app("dwt")
//                   .emt("none").emt("dream")
//                   .voltages(0.6, 0.9, 0.1)
//                   .repetitions(8)
//                   .run_rows();

#include <cstdint>
#include <string>
#include <vector>

#include "ulpdream/campaign/result_store.hpp"
#include "ulpdream/campaign/session.hpp"
#include "ulpdream/campaign/spec.hpp"

namespace ulpdream::campaign {

class Scenario {
 public:
  Scenario() = default;

  /// Appends a component by registry name (validated in build_spec()).
  Scenario& app(const std::string& name);
  Scenario& emt(const std::string& name);
  Scenario& ber_model(const std::string& name);

  /// Appends one supply point / an inclusive [vmin, vmax] grid.
  Scenario& voltage(double v);
  Scenario& voltages(double vmin, double vmax, double step);

  /// Appends one synthetic patient trace to the record axis.
  Scenario& record(ecg::Pathology pathology, double noise_scale = 1.0,
                   std::uint64_t seed = 7);
  /// Record-generation geometry shared by every record axis entry.
  Scenario& sampling(double fs_hz, double duration_s);

  Scenario& repetitions(std::size_t n);
  Scenario& seed(std::uint64_t s);
  /// Worker threads for run(); 0 = all hardware threads. Ignored when a
  /// session is attached (the session owns the pool).
  Scenario& threads(unsigned n);

  /// Attaches a shared execution session: run()/submit() then execute on
  /// its pool, interleaved with whatever else is submitted there. The
  /// session must outlive the calls.
  Scenario& session(Session& session);

  /// The normalized CampaignSpec this scenario describes. Unset axes take
  /// the paper defaults. Throws std::invalid_argument (listing the valid
  /// names) when a component name is not registered.
  [[nodiscard]] CampaignSpec build_spec() const;

  /// Executes the scenario and returns the complete raw store — on the
  /// attached session when one is set, otherwise on a private one.
  [[nodiscard]] ResultStore run() const;

  /// Executes and aggregates in one step (the common quickstart path).
  [[nodiscard]] std::vector<AggregateRow> run_rows(
      const GroupBy& group = GroupBy{}) const;

  /// Asynchronous run(): submits onto the attached session and returns
  /// the job handle immediately. Throws std::logic_error when no session
  /// is attached.
  [[nodiscard]] CampaignHandle submit(SubmitOptions options = {}) const;

 private:
  CampaignSpec spec_{};
  unsigned threads_ = 0;
  Session* session_ = nullptr;
};

}  // namespace ulpdream::campaign
