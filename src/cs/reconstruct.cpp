#include "ulpdream/cs/reconstruct.hpp"

#include <stdexcept>
#include <string>

namespace ulpdream::cs {

namespace {

/// Checks the geometry before anything is built from it.
const CsConfig& validated(const CsConfig& cfg) {
  const auto fail = [&](const std::string& why) {
    throw std::invalid_argument(
        "CsReconstructor: bad geometry (block_n=" +
        std::to_string(cfg.block_n) +
        ", block_m=" + std::to_string(cfg.block_m) +
        ", dwt_levels=" + std::to_string(cfg.dwt_levels) + "): " + why);
  };
  if (cfg.block_m == 0 || cfg.block_m > cfg.block_n) {
    fail("need 0 < block_m <= block_n");
  }
  // Odd intermediate band lengths lose samples in the inverse DWT.
  const std::size_t atom =
      signal::idwt_multi_f64(std::vector<double>(cfg.block_n), cfg.family,
                             cfg.dwt_levels)
          .size();
  if (atom != cfg.block_n) {
    fail("the inverse DWT of block_n coefficients has " +
         std::to_string(atom) + " samples, not block_n");
  }
  return cfg;
}

}  // namespace

CsReconstructor::CsReconstructor(const CsConfig& cfg)
    : cfg_(validated(cfg)),
      phi_(make_sparse_phi(cfg.block_m, cfg.block_n, cfg.ones_per_column,
                           cfg.phi_seed)),
      dictionary_(cfg.block_m, cfg.block_n) {
  // Column j of A is Phi applied to the j-th wavelet synthesis atom. Each
  // row sums its ~n*d/m nonzero Phi columns (entries 1/d) in ascending
  // column order: the dense product adds only +-0 terms besides these,
  // to an accumulator that starts at +0, so every entry is bit-identical
  // to it.
  const std::vector<std::vector<std::uint32_t>> row_cols = phi_.row_columns();
  const double value = 1.0 / static_cast<double>(phi_.d);
  std::vector<double> unit(cfg.block_n, 0.0);
  for (std::size_t j = 0; j < cfg.block_n; ++j) {
    unit[j] = 1.0;
    const std::vector<double> atom =
        signal::idwt_multi_f64(unit, cfg.family, cfg.dwt_levels);
    for (std::size_t r = 0; r < cfg.block_m; ++r) {
      double acc = 0.0;
      for (const std::uint32_t c : row_cols[r]) acc += value * atom[c];
      dictionary_.at(r, j) = acc;
    }
    unit[j] = 0.0;
  }
}

std::vector<double> CsReconstructor::reconstruct(
    const std::vector<double>& y) const {
  if (y.size() != cfg_.block_m) {
    throw std::invalid_argument("CsReconstructor::reconstruct: bad y size");
  }
  const OmpResult sparse = omp_solve(dictionary_, y, cfg_.omp);
  return signal::idwt_multi_f64(sparse.solution, cfg_.family,
                                cfg_.dwt_levels);
}

}  // namespace ulpdream::cs
