#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "ulpdream/linalg/matrix.hpp"
#include "ulpdream/linalg/solve.hpp"
#include "ulpdream/util/rng.hpp"

namespace ulpdream::linalg {
namespace {

TEST(Matrix, IdentityMultiplication) {
  const Matrix id = Matrix::identity(4);
  Matrix a(4, 4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      a.at(r, c) = static_cast<double>(r * 4 + c);
    }
  }
  const Matrix prod = id.multiply(a);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_DOUBLE_EQ(prod.at(r, c), a.at(r, c));
    }
  }
}

TEST(Matrix, MultiplyKnownValues) {
  Matrix a(2, 3);
  a.at(0, 0) = 1; a.at(0, 1) = 2; a.at(0, 2) = 3;
  a.at(1, 0) = 4; a.at(1, 1) = 5; a.at(1, 2) = 6;
  const std::vector<double> v = {1.0, 0.0, -1.0};
  const std::vector<double> out = a.multiply(v);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], -2.0);
  EXPECT_DOUBLE_EQ(out[1], -2.0);
}

TEST(Matrix, MultiplyDimensionMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(a.multiply(b), std::invalid_argument);
  EXPECT_THROW(a.multiply(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(Matrix, TransposeRoundTrip) {
  Matrix a(3, 2);
  a.at(0, 0) = 1; a.at(2, 1) = 7;
  const Matrix t = a.transpose();
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_DOUBLE_EQ(t.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(t.at(1, 2), 7.0);
}

TEST(Matrix, MultiplyTransposedMatchesExplicit) {
  util::Xoshiro256 rng(3);
  Matrix a(5, 7);
  for (auto& v : a.data()) v = rng.gaussian();
  std::vector<double> y(5);
  for (auto& v : y) v = rng.gaussian();
  const std::vector<double> fast = a.multiply_transposed(y);
  const std::vector<double> slow = a.transpose().multiply(y);
  ASSERT_EQ(fast.size(), slow.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], slow[i], 1e-12);
  }
}

TEST(Matrix, MultiplyTransposedBitIdenticalToRowAtATimeLoop) {
  // 1-9 nonzero multipliers (0-3 rows left over after the four-row
  // passes), each followed by a +0 or -0 one, over 13 columns; entries
  // span eight decades so any change of summation order shows.
  util::Xoshiro256 rng(77);
  const std::size_t cols = 13;
  for (std::size_t nonzero = 1; nonzero <= 9; ++nonzero) {
    SCOPED_TRACE(testing::Message() << "nonzero rows=" << nonzero);
    Matrix a(2 * nonzero, cols);
    for (double& x : a.data()) {
      x = rng.gaussian() * std::pow(10.0, static_cast<double>(rng.bounded(8)));
    }
    std::vector<double> v(2 * nonzero);
    for (std::size_t i = 0; i < nonzero; ++i) {
      v[2 * i] = rng.gaussian() * 1e3;
      v[2 * i + 1] = (i % 2 == 0) ? 0.0 : -0.0;
    }
    std::vector<double> want(cols, 0.0);
    for (std::size_t r = 0; r < a.rows(); ++r) {
      if (v[r] == 0.0) continue;
      for (std::size_t c = 0; c < cols; ++c) want[c] += v[r] * a.at(r, c);
    }
    const std::vector<double> got = a.multiply_transposed(v);
    ASSERT_EQ(got.size(), cols);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), cols * sizeof(double)), 0);
  }
}

TEST(Matrix, ColumnExtraction) {
  Matrix a(3, 2);
  a.at(0, 1) = 5; a.at(1, 1) = 6; a.at(2, 1) = 7;
  const std::vector<double> col = a.column(1);
  EXPECT_EQ(col, (std::vector<double>{5.0, 6.0, 7.0}));
  EXPECT_THROW(a.column(2), std::out_of_range);
}

TEST(VectorOps, DotNormAxpy) {
  const std::vector<double> a = {1.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(dot(a, a), 9.0);
  EXPECT_DOUBLE_EQ(norm2(a), 3.0);
  std::vector<double> acc = {1.0, 1.0, 1.0};
  axpy(2.0, a, acc);
  EXPECT_EQ(acc, (std::vector<double>{3.0, 5.0, 5.0}));
}

TEST(Cholesky, FactorizesKnownSpd) {
  Matrix a(2, 2);
  a.at(0, 0) = 4; a.at(0, 1) = 2;
  a.at(1, 0) = 2; a.at(1, 1) = 3;
  ASSERT_TRUE(cholesky(a));
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 1.0);
  EXPECT_NEAR(a.at(1, 1), std::sqrt(2.0), 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a(2, 2);
  a.at(0, 0) = 1; a.at(0, 1) = 2;
  a.at(1, 0) = 2; a.at(1, 1) = 1;  // eigenvalues 3, -1
  EXPECT_FALSE(cholesky(a));
}

TEST(Cholesky, LeadingRowsFactorAndSolveTheLeadingMinor) {
  // What incremental OMP relies on: the first k rows of an n x n factor
  // are, bit for bit, the factor of the leading k x k minor, and forward
  // substitution extends entry by entry, so solving the k x k system
  // from scratch equals back-substituting over the big factor's rows.
  const std::size_t n = 8;
  util::Xoshiro256 rng(5);
  Matrix m(n, n);
  for (auto& v : m.data()) v = rng.gaussian();
  Matrix spd = m.transpose().multiply(m);
  for (std::size_t i = 0; i < n; ++i) spd.at(i, i) += 0.5;
  std::vector<double> b(n);
  for (auto& v : b) v = rng.gaussian();

  Matrix full = spd;
  ASSERT_TRUE(cholesky(full));
  std::vector<double> z;
  for (std::size_t k = 1; k <= n; ++k) {
    Matrix leading(k, k);
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) leading.at(i, j) = spd.at(i, j);
    }
    const std::vector<double> b_leading(b.begin(), b.begin() + k);
    const std::vector<double> x_scratch = solve_spd(leading, b_leading);
    ASSERT_TRUE(cholesky(leading));
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        EXPECT_EQ(leading.at(i, j), full.at(i, j))
            << k << ": " << i << "," << j;
      }
    }
    z.push_back(forward_substitute_row(full, z, b[k - 1]));
    EXPECT_EQ(back_substitute(full, z), x_scratch) << k;
  }
}

TEST(Solve, SpdSolveMatchesKnownSolution) {
  Matrix a(3, 3);
  // A = M^T M + I for a random M: guaranteed SPD.
  util::Xoshiro256 rng(11);
  Matrix m(3, 3);
  for (auto& v : m.data()) v = rng.gaussian();
  const Matrix mt = m.transpose();
  a = mt.multiply(m);
  for (std::size_t i = 0; i < 3; ++i) a.at(i, i) += 1.0;

  const std::vector<double> x_true = {1.0, -2.0, 0.5};
  const std::vector<double> b = a.multiply(x_true);
  const std::vector<double> x = solve_spd(a, b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

class CholeskySizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(CholeskySizeSweep, SolveRecoversRandomSolution) {
  const auto n = static_cast<std::size_t>(GetParam());
  util::Xoshiro256 rng(100 + static_cast<std::uint64_t>(GetParam()));
  Matrix m(n, n);
  for (auto& v : m.data()) v = rng.gaussian();
  Matrix a = m.transpose().multiply(m);
  for (std::size_t i = 0; i < n; ++i) a.at(i, i) += static_cast<double>(n);
  std::vector<double> x_true(n);
  for (auto& v : x_true) v = rng.gaussian();
  const std::vector<double> x = solve_spd(a, a.multiply(x_true));
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizeSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 32, 64));

}  // namespace
}  // namespace ulpdream::linalg
