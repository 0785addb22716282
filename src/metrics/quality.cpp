#include "ulpdream/metrics/quality.hpp"

#include <cmath>
#include <stdexcept>

namespace ulpdream::metrics {

namespace {
void check_sizes(std::size_t a, std::size_t b) {
  if (a != b || a == 0) {
    throw std::invalid_argument(
        "quality metric: vectors must be equal-sized and non-empty");
  }
}
}  // namespace

double mse(const std::vector<double>& theo, const std::vector<double>& exp) {
  check_sizes(theo.size(), exp.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < theo.size(); ++i) {
    const double d = theo[i] - exp[i];
    acc += d * d;
  }
  return acc / static_cast<double>(theo.size());
}

double snr_db(const std::vector<double>& theo,
              const std::vector<double>& exp) {
  const double err = mse(theo, exp);
  double sig = 0.0;
  for (double x : theo) sig += x * x;
  sig /= static_cast<double>(theo.size());
  if (err <= 0.0) return kSnrCeilingDb;
  if (sig <= 0.0) return -kSnrCeilingDb;
  const double snr = 20.0 * std::log10(std::sqrt(sig) / std::sqrt(err));
  if (snr > kSnrCeilingDb) return kSnrCeilingDb;
  if (snr < -kSnrCeilingDb) return -kSnrCeilingDb;
  return snr;
}

}  // namespace ulpdream::metrics
