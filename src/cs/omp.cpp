#include "ulpdream/cs/omp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ulpdream/linalg/solve.hpp"

namespace ulpdream::cs {

namespace {

/// Ridge on the Gram diagonal, (A_S^T A_S + kRidge I) x = A_S^T y.
constexpr double kRidge = 1e-9;

}  // namespace

// The least-squares step grows append-only: each atom adds one Gram row,
// one right-hand-side entry, one Cholesky row and one forward-substitution
// entry, then the coefficients are back-substituted. Every entry is
// computed by the same formula, in the same order, as factoring and
// solving the whole system from scratch, so the coefficients are
// bit-identical to it. A leading minor never changes as the support
// grows, so once a Cholesky pivot is non-positive every later system
// fails at the same row: from then on each iteration hands the whole
// Gram to solve_spd's ridge retry, exactly as a from-scratch solve would.
OmpResult omp_solve(const linalg::Matrix& a, const std::vector<double>& y,
                    const OmpConfig& cfg) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (y.size() != m) throw std::invalid_argument("omp_solve: size mismatch");

  OmpResult result;
  result.solution.assign(n, 0.0);
  std::vector<double> residual = y;
  const double y_norm = linalg::norm2(y);
  result.residual_norm = y_norm;
  if (y_norm == 0.0) return result;

  const std::size_t max_k = std::min(cfg.max_atoms, m);
  std::vector<bool> in_support(n, false);
  // Active columns, stored contiguously: atom c at active[c * m].
  std::vector<double> active;
  active.reserve(max_k * m);
  linalg::Matrix gram(max_k, max_k);  // lower triangle, ridge included
  linalg::Matrix chol(max_k, max_k);  // lower Cholesky factor of gram
  std::vector<double> rhs;            // A_S^T y
  std::vector<double> fwd;            // chol^-1 rhs
  bool factored = true;               // every pivot so far positive
  std::vector<double> coeffs;

  for (std::size_t k = 0; k < max_k; ++k) {
    // Correlation step: strongest remaining atom.
    const std::vector<double> corr = a.multiply_transposed(residual);
    std::size_t best = n;
    double best_mag = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      if (in_support[c]) continue;
      const double mag = std::fabs(corr[c]);
      if (mag > best_mag) {
        best_mag = mag;
        best = c;
      }
    }
    if (best == n || best_mag < 1e-14) break;
    in_support[best] = true;
    result.support.push_back(best);

    active.resize((k + 1) * m);
    double* col = &active[k * m];
    for (std::size_t r = 0; r < m; ++r) col[r] = a.at(r, best);

    // New Gram row, four dot products per pass as independent add
    // chains, and right-hand-side entry (zero y entries skipped, as
    // Matrix::multiply_transposed does).
    std::size_t j = 0;
    for (; j + 4 <= k + 1; j += 4) {
      const double* o0 = &active[j * m];
      const double* o1 = o0 + m;
      const double* o2 = o1 + m;
      const double* o3 = o2 + m;
      double a0 = 0.0;
      double a1 = 0.0;
      double a2 = 0.0;
      double a3 = 0.0;
      for (std::size_t r = 0; r < m; ++r) {
        a0 += o0[r] * col[r];
        a1 += o1[r] * col[r];
        a2 += o2[r] * col[r];
        a3 += o3[r] * col[r];
      }
      gram.at(k, j) = a0;
      gram.at(k, j + 1) = a1;
      gram.at(k, j + 2) = a2;
      gram.at(k, j + 3) = a3;
    }
    for (; j <= k; ++j) {
      const double* other = &active[j * m];
      double acc = 0.0;
      for (std::size_t r = 0; r < m; ++r) acc += other[r] * col[r];
      gram.at(k, j) = acc;
    }
    gram.at(k, k) += kRidge;
    double b = 0.0;
    for (std::size_t r = 0; r < m; ++r) {
      if (y[r] == 0.0) continue;
      b += y[r] * col[r];
    }
    rhs.push_back(b);

    if (factored) {
      for (std::size_t j = 0; j <= k; ++j) chol.at(k, j) = gram.at(k, j);
      factored = linalg::cholesky_append_row(chol, k);
    }
    if (factored) {
      fwd.push_back(linalg::forward_substitute_row(chol, fwd, b));
      coeffs = linalg::back_substitute(chol, fwd);
    } else {
      linalg::Matrix full(k + 1, k + 1);
      for (std::size_t i = 0; i <= k; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
          full.at(i, j) = full.at(j, i) = gram.at(i, j);
        }
      }
      coeffs = linalg::solve_spd(std::move(full), rhs);
    }

    // Residual update, four atoms per pass; each residual[r] still
    // subtracts them in support order.
    residual = y;
    std::size_t c = 0;
    for (; c + 4 <= k + 1; c += 4) {
      const double* a0 = &active[c * m];
      const double* a1 = a0 + m;
      const double* a2 = a1 + m;
      const double* a3 = a2 + m;
      for (std::size_t r = 0; r < m; ++r) {
        double acc = residual[r];
        acc -= coeffs[c] * a0[r];
        acc -= coeffs[c + 1] * a1[r];
        acc -= coeffs[c + 2] * a2[r];
        acc -= coeffs[c + 3] * a3[r];
        residual[r] = acc;
      }
    }
    for (; c <= k; ++c) {
      const double* atom = &active[c * m];
      for (std::size_t r = 0; r < m; ++r) residual[r] -= coeffs[c] * atom[r];
    }
    result.iterations = k + 1;
    result.residual_norm = linalg::norm2(residual);
    if (result.residual_norm / y_norm < cfg.residual_tol) break;
  }

  for (std::size_t c = 0; c < result.support.size(); ++c) {
    result.solution[result.support[c]] = coeffs[c];
  }
  return result;
}

}  // namespace ulpdream::cs
