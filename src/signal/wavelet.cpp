#include "ulpdream/signal/wavelet.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace ulpdream::signal {

TapVec quantize_taps(const std::vector<double>& taps) {
  double max_abs = 0.0;
  for (double t : taps) max_abs = std::max(max_abs, std::fabs(t));
  const double scale = max_abs >= 1.0 ? 0.999 / max_abs : 1.0;
  TapVec out;
  out.reserve(taps.size());
  for (double t : taps) out.push_back(fixed::Q15::from_double(t * scale));
  return out;
}

namespace {

WaveletBank make_bank(std::string name, std::vector<double> lo_d) {
  WaveletBank bank;
  bank.name = std::move(name);
  bank.lo_d = std::move(lo_d);
  const std::size_t n = bank.lo_d.size();
  // Orthogonal QMF relations:
  //   hi_d[k] = (-1)^k * lo_d[n-1-k]
  //   lo_r[k] = lo_d[n-1-k],  hi_r[k] = hi_d[n-1-k]
  bank.hi_d.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double sign = (k % 2 == 0) ? 1.0 : -1.0;
    bank.hi_d[k] = sign * bank.lo_d[n - 1 - k];
  }
  bank.lo_r.assign(bank.lo_d.rbegin(), bank.lo_d.rend());
  bank.hi_r.assign(bank.hi_d.rbegin(), bank.hi_d.rend());
  return bank;
}

const WaveletBank& haar() {
  static const WaveletBank bank =
      make_bank("haar", {std::numbers::sqrt2 / 2.0, std::numbers::sqrt2 / 2.0});
  return bank;
}

const WaveletBank& db2() {
  // Daubechies-2 (4 taps), standard coefficients.
  static const WaveletBank bank = make_bank(
      "db2", {0.48296291314469025, 0.8365163037378079, 0.22414386804185735,
              -0.12940952255092145});
  return bank;
}

const WaveletBank& db4() {
  // Daubechies-4 (8 taps).
  static const WaveletBank bank = make_bank(
      "db4",
      {0.23037781330885523, 0.7148465705525415, 0.6308807679295904,
       -0.02798376941698385, -0.18703481171888114, 0.030841381835986965,
       0.032883011666982945, -0.010597401784997278});
  return bank;
}

}  // namespace

const WaveletBank& wavelet_bank(WaveletFamily family) {
  switch (family) {
    case WaveletFamily::kHaar:
      return haar();
    case WaveletFamily::kDb2:
      return db2();
    case WaveletFamily::kDb4:
      return db4();
  }
  throw std::invalid_argument("unknown wavelet family");
}

FixedBank fixed_bank(WaveletFamily family) {
  const WaveletBank& bank = wavelet_bank(family);
  FixedBank out;
  out.lo = quantize_taps(bank.lo_d);
  out.hi = quantize_taps(bank.hi_d);
  return out;
}

namespace {

// One double-precision decimated analysis level with periodic extension.
void dwt_level_f64(const std::vector<double>& in, const WaveletBank& bank,
                   std::vector<double>& approx, std::vector<double>& detail) {
  const std::size_t n = in.size();
  const std::size_t half = n / 2;
  approx.assign(half, 0.0);
  detail.assign(half, 0.0);
  for (std::size_t i = 0; i < half; ++i) {
    double lo = 0.0;
    double hi = 0.0;
    for (std::size_t k = 0; k < bank.lo_d.size(); ++k) {
      const double s = in[(2 * i + k) % n];
      lo += s * bank.lo_d[k];
      hi += s * bank.hi_d[k];
    }
    approx[i] = lo;
    detail[i] = hi;
  }
}

// One synthesis level: upsample-and-filter with the synthesis pair.
std::vector<double> idwt_level_f64(const std::vector<double>& approx,
                                   const std::vector<double>& detail,
                                   const WaveletBank& bank) {
  const std::size_t half = approx.size();
  const std::size_t n = half * 2;
  const std::size_t taps = bank.lo_r.size();
  std::vector<double> out(n, 0.0);
  // Periodized overlap-add of each coefficient's synthesis response.
  for (std::size_t i = 0; i < half; ++i) {
    for (std::size_t k = 0; k < taps; ++k) {
      const std::size_t pos = (2 * i + k) % n;
      out[pos] += approx[i] * bank.lo_r[taps - 1 - k] +
                  detail[i] * bank.hi_r[taps - 1 - k];
    }
  }
  return out;
}

}  // namespace

std::vector<double> dwt_multi_f64(const std::vector<double>& in,
                                  WaveletFamily family, std::size_t levels) {
  const WaveletBank& bank = wavelet_bank(family);
  std::vector<double> out(in.size(), 0.0);
  std::vector<double> current = in;
  std::size_t write_end = in.size();
  for (std::size_t lv = 0; lv < levels && current.size() >= 2; ++lv) {
    std::vector<double> approx;
    std::vector<double> detail;
    dwt_level_f64(current, bank, approx, detail);
    const std::size_t half = detail.size();
    for (std::size_t i = 0; i < half; ++i) {
      out[write_end - half + i] = detail[i];
    }
    write_end -= half;
    current = std::move(approx);
  }
  for (std::size_t i = 0; i < current.size(); ++i) out[i] = current[i];
  return out;
}

std::vector<double> idwt_multi_f64(const std::vector<double>& coeffs,
                                   WaveletFamily family, std::size_t levels) {
  const WaveletBank& bank = wavelet_bank(family);
  // Determine the band sizes from the forward layout.
  std::size_t len = coeffs.size();
  std::vector<std::size_t> detail_sizes;
  for (std::size_t lv = 0; lv < levels && len >= 2; ++lv) {
    len /= 2;
    detail_sizes.push_back(len);
  }
  std::vector<double> current(coeffs.begin(),
                              coeffs.begin() + static_cast<long>(len));
  std::size_t offset = len;
  for (auto it = detail_sizes.rbegin(); it != detail_sizes.rend(); ++it) {
    const std::size_t half = *it;
    std::vector<double> detail(
        coeffs.begin() + static_cast<long>(offset),
        coeffs.begin() + static_cast<long>(offset + half));
    current = idwt_level_f64(current, detail, bank);
    offset += half;
  }
  return current;
}

}  // namespace ulpdream::signal
