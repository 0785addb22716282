#pragma once
// Base-station side of the CS pipeline: reconstructs an ECG block from its
// compressed measurements by OMP in a wavelet sparsity basis. The node
// compresses with a sparse binary Phi (see sensing_matrix.hpp); this class
// owns the matching dense dictionary A = Phi * Psi (Psi = inverse DWT
// basis) and its OMP Gram matrix, built once per configuration and
// read-only afterwards, so pool workers share them.
//
// Note on quality ceilings: CS at 50% compression is lossy by
// construction, so even an error-free execution reconstructs with finite
// SNR — the effect the paper points out for Fig. 4's dashed CS line.

#include <cstdint>
#include <vector>

#include "ulpdream/cs/omp.hpp"
#include "ulpdream/cs/sensing_matrix.hpp"
#include "ulpdream/signal/wavelet.hpp"

namespace ulpdream::cs {

struct CsConfig {
  std::size_t block_n = 256;   ///< input block length
  std::size_t block_m = 128;   ///< measurements (50% compression)
  int ones_per_column = 4;     ///< sparse Phi density (power of two)
  std::uint64_t phi_seed = 0xC5C5C5C5ULL;
  signal::WaveletFamily family = signal::WaveletFamily::kDb4;
  std::size_t dwt_levels = 5;
  OmpConfig omp{};
};

class CsReconstructor {
 public:
  /// Throws std::invalid_argument, naming block_n, block_m and
  /// dwt_levels, unless 0 < block_m <= block_n and the inverse DWT maps
  /// block_n coefficients back to block_n samples.
  explicit CsReconstructor(const CsConfig& cfg);

  [[nodiscard]] const CsConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const SparsePhi& phi() const noexcept { return phi_; }
  /// The OMP dictionary A = Phi * Psi, (m x n), with its Gram matrix.
  [[nodiscard]] const OmpDictionary& dictionary() const noexcept {
    return dictionary_;
  }

  /// Reconstructs one block: y (length m, measurement domain) -> x-hat
  /// (length n, signal domain).
  [[nodiscard]] std::vector<double> reconstruct(
      const std::vector<double>& y) const;

 private:
  CsConfig cfg_;
  SparsePhi phi_;
  OmpDictionary dictionary_;  ///< A = Phi * Psi, (m x n)
};

}  // namespace ulpdream::cs
