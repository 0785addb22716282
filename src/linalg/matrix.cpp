#include "ulpdream/linalg/matrix.hpp"

#include <cmath>
#include <stdexcept>

namespace ulpdream::linalg {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      t.at(c, r) = at(r, c);
    }
  }
  return t;
}

Matrix Matrix::multiply(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) {
    throw std::invalid_argument("Matrix::multiply: dimension mismatch");
  }
  Matrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = at(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < rhs.cols_; ++c) {
        out.at(r, c) += a * rhs.at(k, c);
      }
    }
  }
  return out;
}

std::vector<double> Matrix::multiply(const std::vector<double>& v) const {
  if (v.size() != cols_) {
    throw std::invalid_argument("Matrix::multiply(vec): dimension mismatch");
  }
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    const double* row = &data_[r * cols_];
    for (std::size_t c = 0; c < cols_; ++c) acc += row[c] * v[c];
    out[r] = acc;
  }
  return out;
}

std::vector<double> Matrix::multiply_transposed(
    const std::vector<double>& v) const {
  if (v.size() != rows_) {
    throw std::invalid_argument(
        "Matrix::multiply_transposed: dimension mismatch");
  }
  // Zero entries of v are skipped. The nonzero rows fold into out four
  // per pass, so each out[c] is loaded and stored once per four rows but
  // still sums its terms in row order; leftover rows go one at a time.
  std::vector<double> out(cols_, 0.0);
  double* const o = out.data();
  const double* rows[4];
  double s[4];
  std::size_t pending = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    if (v[r] == 0.0) continue;
    rows[pending] = &data_[r * cols_];
    s[pending] = v[r];
    if (++pending < 4) continue;
    pending = 0;
    for (std::size_t c = 0; c < cols_; ++c) {
      double acc = o[c];
      acc += s[0] * rows[0][c];
      acc += s[1] * rows[1][c];
      acc += s[2] * rows[2][c];
      acc += s[3] * rows[3][c];
      o[c] = acc;
    }
  }
  for (std::size_t i = 0; i < pending; ++i) {
    for (std::size_t c = 0; c < cols_; ++c) o[c] += s[i] * rows[i][c];
  }
  return out;
}

std::vector<double> Matrix::column(std::size_t c) const {
  if (c >= cols_) throw std::out_of_range("Matrix::column");
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = at(r, c);
  return out;
}

double Matrix::norm() const {
  double acc = 0.0;
  for (double x : data_) acc += x * x;
  return std::sqrt(acc);
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double norm2(const std::vector<double>& v) { return std::sqrt(dot(v, v)); }

void axpy(double s, const std::vector<double>& b, std::vector<double>& a) {
  if (a.size() != b.size()) throw std::invalid_argument("axpy: size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += s * b[i];
}

}  // namespace ulpdream::linalg
