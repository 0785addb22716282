#pragma once
// Matrix Filtering application (paper Sec. II-2): applies a linear
// transformation to blocks of biosignal samples as repeated matrix
// multiplications [A] x [B] = [C], iterated until the desired quality is
// reached. A is a fixed-point smoothing (low-pass Toeplitz) operator; B
// packs the ECG window column-wise. Because every output element depends
// on a full row and column of inputs, a single memory error fans out —
// the reason the Matrix Filtering curve sits below the others in Fig. 2.

#include "ulpdream/apps/app.hpp"

namespace ulpdream::apps {

struct MatrixFilterConfig {
  std::size_t k = 32;       ///< operator dimension (A is k x k)
  std::size_t n = 2048;     ///< samples processed (k x n/k block matrix B)
  std::size_t iterations = 3;
  /// A is an unsharp-mask enhancement operator A = (1+alpha)I - alpha*G
  /// (G = Gaussian smoother): a standard feature-enhancement transform.
  /// Its row energy exceeds 1, so injected memory errors are *amplified*
  /// every iteration — the mechanism behind the paper's observation that
  /// Matrix Filtering degrades far more than the other applications
  /// (each output depends on a full row and column of inputs).
  double smoothing_radius = 2.0;
  double sharpen_alpha = 0.7;
};

/// The filter's kernel: `iterations` rounds of C = A x B, where `a`
/// holds the k x k operator row-major in raw Q2.14 (A / 2 in Q1.15) and
/// `b` the k x cols input block column-major (B[r][c] = b[c * k + r]),
/// ping-ponging between `b` and `c`. Returns the buffer holding the last
/// result: `c` after an odd number of rounds, else `b`. `a` must not
/// overlap `b` or `c`.
core::ProtectedBuffer& matrix_filter_product(const core::ProtectedBuffer& a,
                                             core::ProtectedBuffer& b,
                                             core::ProtectedBuffer& c,
                                             std::size_t k, std::size_t cols,
                                             std::size_t iterations);

class MatrixFilterApp final : public BioApp {
 public:
  explicit MatrixFilterApp(MatrixFilterConfig cfg = {});

  [[nodiscard]] std::string name() const override { return "matrix_filter"; }
  [[nodiscard]] std::size_t input_length() const override { return cfg_.n; }
  [[nodiscard]] std::size_t footprint_words() const override {
    return cfg_.k * cfg_.k + 2 * cfg_.n;  // A + B + C
  }

  [[nodiscard]] std::vector<double> run(
      core::MemorySystem& system, const ecg::Record& record) const override;

  [[nodiscard]] std::optional<std::vector<double>> ideal_output(
      const ecg::Record& record) const override;

 private:
  MatrixFilterConfig cfg_;
  std::vector<fixed::Sample> a_q15_;  ///< row-major A in raw Q1.15
};

}  // namespace ulpdream::apps
