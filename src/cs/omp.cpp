#include "ulpdream/cs/omp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "ulpdream/linalg/solve.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace ulpdream::cs {

namespace {

/// Ridge on the Gram diagonal, (A_S^T A_S + kRidge I) x = A_S^T y.
constexpr double kRidge = 1e-9;

/// gamma_j = j u / (1 - j u) with u = 2^-53: the relative error bound of a
/// j-term recursive dot product.
double gamma(std::size_t j) {
  const double ju = static_cast<double>(j) *
                    (std::numeric_limits<double>::epsilon() / 2.0);
  return ju / (1.0 - ju);
}

/// Twice the constant the derivation in omp_solve gives; the slack covers
/// the rounding of the bound itself, of ||y||, ||x||_1 and mu, and of the
/// candidate threshold.
constexpr double kBoundScale = 4.0;

/// The smallest subnormal, unit of the bound's underflow part.
constexpr double kTiny = std::numeric_limits<double>::denorm_min();

/// Column c of A^T r by the loop Matrix::multiply_transposed folds: rows
/// ascending, zero entries of r skipped, from +0.
double exact_correlation(const linalg::Matrix& a,
                         const std::vector<double>& r, std::size_t c) {
  double acc = 0.0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    if (r[i] == 0.0) continue;
    acc += r[i] * a.at(i, c);
  }
  return acc;
}

/// corr = alpha0 - G[:, S] x, four atoms per pass; each corr[c] still
/// subtracts them in support order.
void gram_correlations(const linalg::Matrix& g,
                       const std::vector<std::size_t>& support,
                       const std::vector<double>& x,
                       const std::vector<double>& alpha0,
                       std::vector<double>& corr) {
  const std::size_t n = alpha0.size();
  const auto row = [&](std::size_t i) { return &g.data()[support[i] * n]; };
  corr = alpha0;
  double* const o = corr.data();
  std::size_t j = 0;
  for (; j + 4 <= support.size(); j += 4) {
    const double* g0 = row(j);
    const double* g1 = row(j + 1);
    const double* g2 = row(j + 2);
    const double* g3 = row(j + 3);
    for (std::size_t c = 0; c < n; ++c) {
      double acc = o[c];
      acc -= x[j] * g0[c];
      acc -= x[j + 1] * g1[c];
      acc -= x[j + 2] * g2[c];
      acc -= x[j + 3] * g3[c];
      o[c] = acc;
    }
  }
  for (; j < support.size(); ++j) {
    const double* gj = row(j);
    for (std::size_t c = 0; c < n; ++c) o[c] -= x[j] * gj[c];
  }
}

}  // namespace

OmpDictionary::OmpDictionary(linalg::Matrix a)
    : a_(std::move(a)), gram_(a_.cols(), a_.cols()) {
  const std::size_t m = a_.rows();
  const std::size_t n = a_.cols();
  // Row i of the upper triangle folds in A four rows per pass, so the inner
  // loop runs over contiguous columns and loads and stores each entry once
  // per four rows. Each entry still adds every product, zeros included, in
  // ascending row order, as the per-solve Gram rows did, so it has their
  // bits even for non-finite entries. Products commute, so the mirrored
  // lower triangle holds the same bits.
  const double* const data = a_.data().data();
  for (std::size_t i = 0; i < n; ++i) {
    double* const out = &gram_.at(i, 0);
    std::size_t r = 0;
    for (; r + 4 <= m; r += 4) {
      const double* const r0 = data + r * n;
      const double* const r1 = r0 + n;
      const double* const r2 = r1 + n;
      const double* const r3 = r2 + n;
      const double s0 = r0[i];
      const double s1 = r1[i];
      const double s2 = r2[i];
      const double s3 = r3[i];
      for (std::size_t c = i; c < n; ++c) {
        double acc = out[c];
        acc += s0 * r0[c];
        acc += s1 * r1[c];
        acc += s2 * r2[c];
        acc += s3 * r3[c];
        out[c] = acc;
      }
    }
    for (; r < m; ++r) {
      const double* const row = data + r * n;
      const double s = row[i];
      for (std::size_t c = i; c < n; ++c) out[c] += s * row[c];
    }
    for (std::size_t c = i + 1; c < n; ++c) gram_.at(c, i) = out[c];
    mu_ = std::isfinite(out[i]) ? std::max(mu_, std::sqrt(out[i]))
                                : std::numeric_limits<double>::infinity();
  }
}

// Correlations (Batch-OMP). The first iteration's correlation A^T y is
// alpha0 itself. Every later one is taken in Gram form,
//   g_c = alpha0_c - sum_j G(c, s_j) x_j,
// for n |S| multiply-adds instead of A^T r's m n, and the pick is then
// made from exact values. Both g_c and the direct t_c = fl(a_c^T r), with
// r the computed residual, approximate a_c^T (y - A_S x) for the computed
// coefficients x. With k = |S|, mu >= every ||a_c||, Cauchy-Schwarz, and
// the recursive dot-product bound |fl(p^T q) - p^T q| <= gamma_j |p|^T |q|
// (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1):
//   - t_c from r: gamma_m mu ||r||, with ||r|| <= (1 + gamma_{k+1}) *
//     (||y|| + mu ||x||_1);
//   - r from y - A_S x (k subtractions in support order):
//     gamma_{k+1} mu (||y|| + mu ||x||_1) once projected on a_c;
//   - alpha0 and G as inputs: gamma_m mu ||y|| + gamma_m mu^2 ||x||_1;
//   - the Gram-form sum: gamma_{k+1} (1 + gamma_m) mu (||y|| + mu ||x||_1).
// So rounding moves g_c - t_c by at most 2 (1 + gamma_m) (gamma_m +
// gamma_{k+1}) mu (||y|| + mu ||x||_1).
//
// Underflow. A product that underflows also errs by up to kTiny / 2 in
// absolute terms, |fl(a b) - a b| <= u |a b| + kTiny / 2, and a sum of
// subnormals is exact (Higham sec. 2.1). The m products of t_c and of
// alpha0_c, the k of each r_i (k sqrt(m) mu once projected on a_c), the
// m of each G(c, s_j) (times |x_j|) and the k of the Gram-form sum add at
// most (m + k + 2) kTiny (2 + sqrt(m) mu + ||x||_1) / 2. A computed sum of
// squares can lose m kTiny / 2 the same way, so a column norm or ||y||
// can fall short by up to sqrt(m kTiny): mu and ||y|| enter E with that
// added.
//
// E, `bound` below, is kBoundScale times the sum of both parts without
// their leading constants: about twice the largest |g_c - t_c|. The
// column the direct rule picks has |t| = M >= T - E, T the largest |g|
// off the support, so a column with |g_c| < T - 2E has |t_c| < M and can
// be neither the pick nor tied with it. Every other column has t_c
// recomputed by the direct loop, and the direct rule (first column of
// largest |t|) picks from those. A non-finite bound or g_c makes every
// column a candidate. The coefficients then follow from the same atom by
// the same arithmetic, so every result bit equals the direct solver's.
//
// Least squares. The step grows append-only: each atom adds one Gram row
// (a lookup into G), one right-hand-side entry (alpha0 at the atom, the
// same sum A_S^T y has always used), one Cholesky row and one
// forward-substitution entry, then the coefficients are
// back-substituted. Every entry is computed by the same formula, in the
// same order, as factoring and solving the whole system from scratch, so
// the coefficients are bit-identical to it. A leading minor never changes
// as the support grows, so once a Cholesky pivot is non-positive every
// later system fails at the same row: from then on each iteration hands
// the whole Gram to solve_spd's ridge retry, exactly as a from-scratch
// solve would. The residual stays explicit for the stopping test and the
// exact re-checks.
OmpResult omp_solve(const OmpDictionary& dict, const std::vector<double>& y,
                    const OmpConfig& cfg) {
  const linalg::Matrix& a = dict.matrix();
  const linalg::Matrix& g = dict.gram();
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (y.size() != m) throw std::invalid_argument("omp_solve: size mismatch");

  OmpResult result;
  result.solution.assign(n, 0.0);
  std::vector<double> residual = y;
  const double y_norm = linalg::norm2(y);
  result.residual_norm = y_norm;
  if (y_norm == 0.0) return result;

  static const util::telemetry::Counter near_ties("cs.omp_near_ties");
  // Bounds on every column norm and on ||y||, underflow included.
  const double lost = std::sqrt(static_cast<double>(m) * kTiny);
  const double mu = dict.max_column_norm() + lost;
  const double y_bound = y_norm + lost;
  const double sqrt_m = std::sqrt(static_cast<double>(m));
  const std::vector<double> alpha0 = a.multiply_transposed(y);
  std::vector<double> corr(n);
  const std::size_t max_k = std::min(cfg.max_atoms, m);
  std::vector<bool> in_support(n, false);
  // Active columns, stored contiguously: atom c at active[c * m].
  std::vector<double> active;
  active.reserve(max_k * m);
  linalg::Matrix chol(max_k, max_k);  // lower Cholesky factor, ridge included
  std::vector<double> rhs;            // A_S^T y
  std::vector<double> fwd;            // chol^-1 rhs
  bool factored = true;               // every pivot so far positive
  std::vector<double> coeffs;

  for (std::size_t k = 0; k < max_k; ++k) {
    // Correlation step: strongest remaining atom.
    std::size_t best = n;
    double best_mag = 0.0;
    const auto consider = [&](std::size_t c, double value) {
      const double mag = std::fabs(value);
      if (mag > best_mag) {
        best_mag = mag;
        best = c;
      }
    };
    if (k == 0) {
      for (std::size_t c = 0; c < n; ++c) consider(c, alpha0[c]);
    } else {
      gram_correlations(g, result.support, coeffs, alpha0, corr);
      double x_l1 = 0.0;
      for (const double v : coeffs) x_l1 += std::fabs(v);
      const double bound =
          kBoundScale *
          ((gamma(m) + gamma(k + 1)) * mu * (y_bound + mu * x_l1) +
           static_cast<double>(m + k + 2) * kTiny *
               (2.0 + sqrt_m * mu + x_l1));
      bool every = !std::isfinite(bound);
      double top = 0.0;
      for (std::size_t c = 0; c < n; ++c) {
        if (in_support[c]) continue;
        if (!std::isfinite(corr[c])) every = true;
        top = std::max(top, std::fabs(corr[c]));
      }
      const double threshold = top - 2.0 * bound;
      std::size_t rechecked = 0;
      for (std::size_t c = 0; c < n; ++c) {
        if (in_support[c] || !(every || std::fabs(corr[c]) >= threshold)) {
          continue;
        }
        consider(c, exact_correlation(a, residual, c));
        ++rechecked;
      }
      if (rechecked >= 2) near_ties.add();
    }
    if (best == n || best_mag < 1e-14) break;
    in_support[best] = true;
    result.support.push_back(best);

    active.resize((k + 1) * m);
    double* col = &active[k * m];
    for (std::size_t r = 0; r < m; ++r) col[r] = a.at(r, best);

    rhs.push_back(alpha0[best]);
    if (factored) {
      for (std::size_t j = 0; j <= k; ++j) {
        chol.at(k, j) = g.at(best, result.support[j]);
      }
      chol.at(k, k) += kRidge;
      factored = linalg::cholesky_append_row(chol, k);
    }
    if (factored) {
      fwd.push_back(linalg::forward_substitute_row(chol, fwd, rhs.back()));
      coeffs = linalg::back_substitute(chol, fwd);
    } else {
      linalg::Matrix full(k + 1, k + 1);
      for (std::size_t i = 0; i <= k; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
          full.at(i, j) = full.at(j, i) =
              g.at(result.support[i], result.support[j]);
        }
        full.at(i, i) += kRidge;
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
