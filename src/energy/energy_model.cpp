#include "ulpdream/energy/energy_model.hpp"

#include <cmath>

namespace ulpdream::energy {

double MemoryEnergyParams::dynamic_j(double v, int bits,
                                     std::uint64_t accesses,
                                     bool small_array) const {
  const double scale = (v / v_nominal) * (v / v_nominal);
  const double factor = small_array ? small_array_factor : 1.0;
  return static_cast<double>(accesses) * bits * e_bit_access_pj * 1e-12 *
         scale * factor;
}

double MemoryEnergyParams::leak_power_w(double v, int bits, std::size_t words,
                                        bool small_array) const {
  const double cells = static_cast<double>(words) * bits;
  const double factor = small_array ? small_array_factor : 1.0;
  const double v_scale =
      (v / v_nominal) * std::exp((v - v_nominal) / dibl_scale_v);
  return cells * leak_w_per_bit_nominal * v_scale * factor;
}

EnergyBreakdown SystemEnergyModel::compute(const core::Emt& emt, double v,
                                           const mem::AccessStats& data_stats,
                                           const mem::AccessStats* side_stats,
                                           std::size_t data_words,
                                           std::uint64_t cycles) const {
  EnergyBreakdown out;
  out.data_dynamic_j =
      params_.dynamic_j(v, emt.payload_bits(), data_stats.total(), false);

  const double t_run = static_cast<double>(cycles) / params_.clock_hz;
  out.data_leak_j =
      params_.leak_power_w(v, emt.payload_bits(), data_words, false) * t_run;

  if (emt.safe_bits() > 0 && side_stats != nullptr) {
    out.side_dynamic_j = params_.dynamic_j(
        params_.v_nominal, emt.safe_bits(), side_stats->total(), true);
    out.side_leak_j =
        params_.leak_power_w(params_.v_nominal, emt.safe_bits(), data_words,
                             true) *
        t_run;
  }

  out.codec_j =
      (static_cast<double>(data_stats.writes) * emt.encode_energy_pj() +
       static_cast<double>(data_stats.reads) * emt.decode_energy_pj()) *
      1e-12;
  return out;
}

}  // namespace ulpdream::energy
