#pragma once
// Sensing matrices for compressed sensing of ECG (paper Sec. II-3, after
// Mamaghanian et al.). The node-side compressor must be cheap: the
// standard choice is a sparse binary matrix (d ones per column, scaled),
// so y = Phi * x reduces to d additions per input sample — feasible on a
// ULP microcontroller in fixed point. A dense Bernoulli +/-1 variant is
// provided for comparison/testing.

#include <cstdint>
#include <vector>

#include "ulpdream/linalg/matrix.hpp"
#include "ulpdream/util/rng.hpp"

namespace ulpdream::cs {

/// Sparse binary Phi of size m x n with exactly `ones_per_column` ones per
/// column (placed uniformly without replacement), entries scaled by
/// 1/sqrt(ones_per_column) so columns have unit norm.
[[nodiscard]] linalg::Matrix sparse_binary_matrix(std::size_t m,
                                                  std::size_t n,
                                                  int ones_per_column,
                                                  std::uint64_t seed);

/// Dense Bernoulli +/- 1/sqrt(m) matrix.
[[nodiscard]] linalg::Matrix bernoulli_matrix(std::size_t m, std::size_t n,
                                              std::uint64_t seed);

/// Node-side representation of a sparse binary Phi: for each input column
/// (signal sample index), the `d` measurement rows it adds into. The
/// embedded compressor computes y_r = (sum of selected x_c) / d using an
/// integer shift (d must be a power of two), so the matching dense matrix
/// has entries 1/d.
struct SparsePhi {
  std::size_t m = 0;  ///< measurements
  std::size_t n = 0;  ///< input length
  int d = 4;          ///< ones per column (power of two)
  /// Row indices, d consecutive entries per column: rows[c*d + k].
  std::vector<std::uint32_t> rows;

  /// Dense equivalent with entries 1/d (reconstruction-side view).
  [[nodiscard]] linalg::Matrix to_dense() const;
  /// Row-major view: for each measurement row, the input columns it sums,
  /// in ascending order.
  [[nodiscard]] std::vector<std::vector<std::uint32_t>> row_columns() const;
};

[[nodiscard]] SparsePhi make_sparse_phi(std::size_t m, std::size_t n, int d,
                                        std::uint64_t seed);

}  // namespace ulpdream::cs
