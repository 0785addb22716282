#include "ulpdream/campaign/scenario.hpp"

#include <stdexcept>
#include <utility>

#include "ulpdream/apps/app.hpp"
#include "ulpdream/core/factory.hpp"
#include "ulpdream/mem/ber_model.hpp"

namespace ulpdream::campaign {

Scenario& Scenario::app(const std::string& name) {
  spec_.apps.push_back(name);
  return *this;
}

Scenario& Scenario::emt(const std::string& name) {
  spec_.emts.push_back(name);
  return *this;
}

Scenario& Scenario::ber_model(const std::string& name) {
  spec_.ber_model = name;
  return *this;
}

Scenario& Scenario::voltage(double v) {
  spec_.voltages.push_back(v);
  return *this;
}

Scenario& Scenario::voltages(double vmin, double vmax, double step) {
  for (double v : CampaignSpec::voltage_range(vmin, vmax, step)) {
    spec_.voltages.push_back(v);
  }
  return *this;
}

Scenario& Scenario::record(ecg::Pathology pathology, double noise_scale,
                           std::uint64_t seed) {
  spec_.records.push_back(RecordAxis{pathology, noise_scale, seed});
  return *this;
}

Scenario& Scenario::sampling(double fs_hz, double duration_s) {
  spec_.fs_hz = fs_hz;
  spec_.duration_s = duration_s;
  return *this;
}

Scenario& Scenario::repetitions(std::size_t n) {
  spec_.repetitions = n;
  return *this;
}

Scenario& Scenario::seed(std::uint64_t s) {
  spec_.seed = s;
  return *this;
}

Scenario& Scenario::threads(unsigned n) {
  threads_ = n;
  return *this;
}

Scenario& Scenario::session(Session& session) {
  session_ = &session;
  return *this;
}

CampaignSpec Scenario::build_spec() const {
  const CampaignSpec spec = spec_.normalized();
  // Validate eagerly through descriptor() — its unknown-name error lists
  // the registered names, which is the message a facade user should see
  // at build time rather than mid-campaign.
  for (const std::string& name : spec.apps) {
    (void)apps::app_registry().descriptor(name);
  }
  for (const std::string& name : spec.emts) {
    (void)core::emt_registry().descriptor(name);
  }
  (void)mem::ber_model_registry().descriptor(spec.ber_model);
  return spec;
}

ResultStore Scenario::run() const {
  if (session_ != nullptr) return session_->submit(build_spec()).take();
  Session session(energy::SystemEnergyModel(), threads_);
  return session.submit(build_spec()).take();
}

CampaignHandle Scenario::submit(SubmitOptions options) const {
  if (session_ == nullptr) {
    throw std::logic_error(
        "Scenario::submit: no session attached — call .session(s) first "
        "(or use the blocking run())");
  }
  return session_->submit(build_spec(), std::move(options));
}

std::vector<AggregateRow> Scenario::run_rows(const GroupBy& group) const {
  return run().aggregate(group);
}

}  // namespace ulpdream::campaign
