#pragma once
// Small dense linear-algebra substrate. Two consumers:
//  - the CS reconstruction back-end (floating point OMP least squares),
//  - reference models for the fixed-point matrix-filtering application.
// Sizes are small (<= 512), so simple row-major storage is the right call.

#include <cstddef>
#include <vector>

namespace ulpdream::linalg {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double& at(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }
  double& operator()(std::size_t r, std::size_t c) { return at(r, c); }
  double operator()(std::size_t r, std::size_t c) const { return at(r, c); }

  [[nodiscard]] const std::vector<double>& data() const noexcept {
    return data_;
  }
  [[nodiscard]] std::vector<double>& data() noexcept { return data_; }

  [[nodiscard]] Matrix transpose() const;
  [[nodiscard]] Matrix multiply(const Matrix& rhs) const;
  [[nodiscard]] std::vector<double> multiply(
      const std::vector<double>& v) const;
  /// y = A^T * v without materializing the transpose.
  [[nodiscard]] std::vector<double> multiply_transposed(
      const std::vector<double>& v) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

[[nodiscard]] double dot(const std::vector<double>& a,
                         const std::vector<double>& b);
[[nodiscard]] double norm2(const std::vector<double>& v);

}  // namespace ulpdream::linalg
