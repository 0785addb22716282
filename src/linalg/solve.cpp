#include "ulpdream/linalg/solve.hpp"

#include <cmath>
#include <stdexcept>

namespace ulpdream::linalg {

bool cholesky_append_row(Matrix& l, std::size_t k) {
  for (std::size_t j = 0; j < k; ++j) {
    double v = l.at(k, j);
    for (std::size_t p = 0; p < j; ++p) v -= l.at(k, p) * l.at(j, p);
    l.at(k, j) = v / l.at(j, j);
  }
  double diag = l.at(k, k);
  for (std::size_t p = 0; p < k; ++p) diag -= l.at(k, p) * l.at(k, p);
  if (diag <= 0.0) return false;
  l.at(k, k) = std::sqrt(diag);
  return true;
}

bool cholesky(Matrix& a) {
  const std::size_t n = a.rows();
  if (a.cols() != n) return false;
  for (std::size_t k = 0; k < n; ++k) {
    if (!cholesky_append_row(a, k)) return false;
    for (std::size_t c = k + 1; c < n; ++c) a.at(k, c) = 0.0;
  }
  return true;
}

double forward_substitute_row(const Matrix& l, const std::vector<double>& z,
                              double b) {
  const std::size_t i = z.size();
  double acc = b;
  for (std::size_t k = 0; k < i; ++k) acc -= l.at(i, k) * z[k];
  return acc / l.at(i, i);
}

std::vector<double> back_substitute(const Matrix& l,
                                    const std::vector<double>& z) {
  const std::size_t n = z.size();
  std::vector<double> x(n, 0.0);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = z[ii];
    for (std::size_t k = ii + 1; k < n; ++k) acc -= l.at(k, ii) * x[k];
    x[ii] = acc / l.at(ii, ii);
  }
  return x;
}

std::vector<double> cholesky_solve(const Matrix& l,
                                   const std::vector<double>& b) {
  const std::size_t n = l.rows();
  if (b.size() != n) {
    throw std::invalid_argument("cholesky_solve: size mismatch");
  }
  std::vector<double> z;
  z.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    z.push_back(forward_substitute_row(l, z, b[i]));
  }
  return back_substitute(l, z);
}

std::vector<double> solve_spd(Matrix a, const std::vector<double>& b) {
  Matrix attempt = a;
  if (!cholesky(attempt)) {
    // Retry with a relative ridge before giving up.
    double trace = 0.0;
    for (std::size_t i = 0; i < a.rows(); ++i) trace += a.at(i, i);
    const double ridge =
        1e-10 * (trace > 0.0 ? trace / static_cast<double>(a.rows()) : 1.0);
    attempt = a;
    for (std::size_t i = 0; i < a.rows(); ++i) attempt.at(i, i) += ridge;
    if (!cholesky(attempt)) {
      throw std::runtime_error("solve_spd: matrix not positive definite");
    }
  }
  return cholesky_solve(attempt, b);
}

}  // namespace ulpdream::linalg
