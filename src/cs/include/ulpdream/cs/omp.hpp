#pragma once
// Orthogonal Matching Pursuit — the sparse-recovery solver used by the
// base-station side of the CS pipeline. Solves
//     min ||alpha||_0  s.t.  y ~= A * alpha
// greedily: pick the column most correlated with the residual, re-solve
// the least-squares on the active set, repeat until the residual or the
// iteration budget is exhausted.
//
// The solver is Batch-OMP (Rubinstein, Zibulevsky & Elad, "Efficient
// Implementation of the K-SVD Algorithm using Batch Orthogonal Matching
// Pursuit", Technion CS-2008-08): the dictionary's Gram matrix is built
// once, and each iteration's correlations come from it instead of from a
// full A^T r. Near-ties are re-checked exactly, so every result is the
// one the plain A^T r solver gives, bit for bit (see omp.cpp).

#include <cstddef>
#include <vector>

#include "ulpdream/linalg/matrix.hpp"

namespace ulpdream::cs {

struct OmpConfig {
  std::size_t max_atoms = 64;        ///< sparsity budget
  double residual_tol = 1e-6;        ///< stop when ||r||/||y|| drops below
};

struct OmpResult {
  std::vector<double> solution;      ///< full-length alpha (zeros off-support)
  std::vector<std::size_t> support;  ///< chosen atom indices in pick order
  double residual_norm = 0.0;
  std::size_t iterations = 0;
};

/// An (m x n) OMP dictionary A with what every solve against it reads:
/// the Gram matrix G = A^T A and the largest column 2-norm. Built once,
/// read-only afterwards, so any number of threads may solve against one
/// object.
class OmpDictionary {
 public:
  explicit OmpDictionary(linalg::Matrix a);

  [[nodiscard]] const linalg::Matrix& matrix() const noexcept { return a_; }
  /// G(i, j) sums A(r, i) * A(r, j) over rows r in ascending order, from
  /// +0: the sum OMP's Gram rows have always used (n x n, symmetric).
  [[nodiscard]] const linalg::Matrix& gram() const noexcept { return gram_; }
  /// Largest sqrt(G(j, j)); +infinity when any G(j, j) is not finite.
  [[nodiscard]] double max_column_norm() const noexcept { return mu_; }

 private:
  linalg::Matrix a_;
  linalg::Matrix gram_;
  double mu_ = 0.0;
};

/// Runs OMP on the dictionary and measurement `y` (length m). Counts each
/// iteration whose pick re-checked two or more columns exactly as
/// cs.omp_near_ties.
[[nodiscard]] OmpResult omp_solve(const OmpDictionary& dict,
                                  const std::vector<double>& y,
                                  const OmpConfig& cfg);

}  // namespace ulpdream::cs
