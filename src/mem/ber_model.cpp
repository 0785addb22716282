#include "ulpdream/mem/ber_model.hpp"

#include <cmath>
#include <stdexcept>

namespace ulpdream::mem {

LogLinearBerModel::LogLinearBerModel(double ber_nominal, double ber_min,
                                     double v_nominal, double v_min)
    : v_min_(v_min), log_ber_min_(std::log10(ber_min)) {
  if (!(ber_nominal > 0.0 && ber_min > 0.0 && ber_min <= 1.0)) {
    throw std::invalid_argument("LogLinearBerModel: BER must be in (0, 1]");
  }
  if (!(v_nominal > v_min)) {
    throw std::invalid_argument("LogLinearBerModel: v_nominal <= v_min");
  }
  slope_ = (std::log10(ber_nominal) - log_ber_min_) / (v_nominal - v_min);
}

double LogLinearBerModel::ber(double v) const {
  const double log_ber = log_ber_min_ + slope_ * (v - v_min_);
  const double b = std::pow(10.0, log_ber);
  return b > 1.0 ? 1.0 : b;
}

ProbitBerModel::ProbitBerModel(double v50, double sigma)
    : v50_(v50), sigma_(sigma) {
  if (sigma <= 0.0) {
    throw std::invalid_argument("ProbitBerModel: sigma must be positive");
  }
}

double ProbitBerModel::ber(double v) const {
  return 0.5 * std::erfc((v - v50_) / (std::sqrt(2.0) * sigma_));
}

util::Registry<BerModel>& ber_model_registry() {
  static util::Registry<BerModel> registry("BER model");
  static const bool built_ins = [] {
    registry.register_factory(
        "log-linear", [] { return std::make_unique<LogLinearBerModel>(); },
        {"Log-linear BER(V)",
         "log10(BER) linear in V, calibrated to the 0.5-0.9 V window",
         {util::kCapPaper}});
    registry.register_factory(
        "probit", [] { return std::make_unique<ProbitBerModel>(); },
        {"Probit BER(V)",
         "erfc cell-failure model from Gaussian Vth variation (D2 ablation)",
         {util::kCapExtendedTier}});
    return true;
  }();
  (void)built_ins;
  return registry;
}

std::unique_ptr<BerModel> make_ber_model(const std::string& name) {
  return ber_model_registry().create(name);
}

std::vector<std::string> ber_model_names() {
  return ber_model_registry().names();
}

}  // namespace ulpdream::mem
