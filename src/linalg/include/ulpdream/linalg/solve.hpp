#pragma once
// Solvers backing the OMP least-squares step: Cholesky on the (always SPD
// after regularization) Gram matrix. The factorization and both
// substitutions are exposed one row at a time, so OMP can grow its
// normal equations by one atom per iteration with the same arithmetic, in
// the same order, as a from-scratch factor-and-solve.

#include <cstddef>
#include <vector>

#include "ulpdream/linalg/matrix.hpp"

namespace ulpdream::linalg {

/// Computes row `k` of a lower Cholesky factor in place. On entry rows
/// 0..k-1 of `l` hold the factor's leading rows and l(k, 0..k) holds row
/// k of the SPD matrix's lower triangle; on exit l(k, 0..k) holds the
/// factor's row k. Entries right of the diagonal are neither read nor
/// written. Returns false (row k left partial) on a non-positive pivot.
[[nodiscard]] bool cholesky_append_row(Matrix& l, std::size_t k);

/// In-place lower Cholesky factorization of an SPD matrix, one
/// cholesky_append_row per row; the upper triangle is zeroed.
/// Returns false if the matrix is not (numerically) positive definite.
[[nodiscard]] bool cholesky(Matrix& a);

/// Next entry of the forward substitution L z = b: given z[0..i) for
/// i = z.size(), returns z[i] from b = b[i] and row i of `l`.
[[nodiscard]] double forward_substitute_row(const Matrix& l,
                                            const std::vector<double>& z,
                                            double b);

/// Back substitution L^T x = z over the leading z.size() rows of `l`.
[[nodiscard]] std::vector<double> back_substitute(
    const Matrix& l, const std::vector<double>& z);

/// Solves A x = b given a lower-triangular Cholesky factor (forward +
/// backward substitution).
[[nodiscard]] std::vector<double> cholesky_solve(const Matrix& chol_lower,
                                                 const std::vector<double>& b);

/// Solves the dense SPD system A x = b. Throws std::runtime_error if A is
/// not positive definite even after a small diagonal ridge is applied.
[[nodiscard]] std::vector<double> solve_spd(Matrix a,
                                            const std::vector<double>& b);

}  // namespace ulpdream::linalg
