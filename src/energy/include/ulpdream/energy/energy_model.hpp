#pragma once
// Parametric memory + codec energy model. Substitutes CACTI 6.5 and the
// Synopsys synthesis power reports of the paper's Sec. V (see DESIGN.md's
// substitution table). Nominal-point constants are representative 32 nm
// low-power SRAM values at 343 K; what the paper actually consumes — and
// what we reproduce — are the *relative* overheads between EMTs.
//
// Model structure (per application run):
//   E_total = E_dyn(data) + E_dyn(side) + E_codec + E_leak(data) + E_leak(side)
//   E_dyn(data) = accesses * bits * e_bit * (V/Vnom)^2        (scaled array)
//   E_dyn(side) = accesses * bits * e_bit * small_factor      (always Vnom)
//   E_codec     = writes * E_enc + reads * E_dec              (logic at Vnom)
//   E_leak      = P_leak(width, words, V) * T_run,  T = cycles / 200 MHz
// Leakage voltage dependence: P ∝ V * exp((V - Vnom)/dibl) (subthreshold
// with DIBL), which gives the expected ~25x leakage reduction from 0.9 V
// to 0.5 V for this technology class.

#include <cstdint>

#include "ulpdream/core/emt.hpp"
#include "ulpdream/mem/memory.hpp"

namespace ulpdream::energy {

struct MemoryEnergyParams {
  double v_nominal = 0.9;             ///< volts
  double e_bit_access_pj = 0.625;     ///< pJ per bit per access at Vnom (32 kB array)
  double small_array_factor = 0.50;   ///< per-bit factor for the narrow side array
  double leak_w_per_bit_nominal = 45e-6 / (16384.0 * 16.0);  ///< 45 uW / 32 kB
  double dibl_scale_v = 0.15;         ///< exp() scale for leakage vs V
  double clock_hz = mem::MemoryGeometry::kClockHz;

  /// Dynamic energy (J) for `accesses` accesses of `bits`-wide words.
  [[nodiscard]] double dynamic_j(double v, int bits, std::uint64_t accesses,
                                 bool small_array) const;

  /// Leakage power (W) of an array of `words` x `bits` at voltage v.
  [[nodiscard]] double leak_power_w(double v, int bits, std::size_t words,
                                    bool small_array) const;
};

/// Encoder/decoder per-operation energy (logic domain, voltage-invariant in
/// this model because the codec must stay at a safe voltage to function).
/// The values live on the Emt interface (encode_energy_pj/decode_energy_pj)
/// so user-registered techniques carry their own.
struct CodecEnergyParams {
  double encode_pj = 0.0;
  double decode_pj = 0.0;
};

[[nodiscard]] CodecEnergyParams codec_energy(const core::Emt& emt);

struct EnergyBreakdown {
  double data_dynamic_j = 0.0;
  double side_dynamic_j = 0.0;
  double codec_j = 0.0;
  double data_leak_j = 0.0;
  double side_leak_j = 0.0;

  [[nodiscard]] double total_j() const {
    return data_dynamic_j + side_dynamic_j + codec_j + data_leak_j +
           side_leak_j;
  }
};

class SystemEnergyModel {
 public:
  explicit SystemEnergyModel(MemoryEnergyParams params = {})
      : params_(params) {}

  /// Energy of a run: `data_stats`/`side_stats` are the access traces from
  /// the memory model (side may be null), `cycles` the run length for
  /// leakage integration, `v` the data-array supply.
  [[nodiscard]] EnergyBreakdown compute(const core::Emt& emt, double v,
                                        const mem::AccessStats& data_stats,
                                        const mem::AccessStats* side_stats,
                                        std::size_t data_words,
                                        std::uint64_t cycles) const;

  [[nodiscard]] const MemoryEnergyParams& params() const noexcept {
    return params_;
  }

 private:
  MemoryEnergyParams params_;
};

}  // namespace ulpdream::energy
