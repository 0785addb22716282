#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "ulpdream/cs/omp.hpp"
#include "ulpdream/cs/reconstruct.hpp"
#include "ulpdream/cs/sensing_matrix.hpp"
#include "ulpdream/ecg/database.hpp"
#include "ulpdream/linalg/solve.hpp"
#include "ulpdream/metrics/quality.hpp"
#include "ulpdream/util/rng.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace ulpdream::cs {
namespace {

// Bit-identity oracle for omp_solve: the from-scratch solver it replaced.
// Every iteration copies the active columns, rebuilds the whole ridge
// Gram matrix and right-hand side, and factors and solves them anew.

/// A_S^T A_S + 1e-9 I for the active columns `m`.
linalg::Matrix reference_gram(const linalg::Matrix& m) {
  const std::size_t n = m.cols();
  linalg::Matrix gram(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t r = 0; r < m.rows(); ++r) {
        acc += m.at(r, i) * m.at(r, j);
      }
      gram.at(i, j) = acc;
      gram.at(j, i) = acc;
    }
    gram.at(i, i) += 1e-9;
  }
  return gram;
}

/// A^T v one row at a time, zero entries of v skipped: the loop
/// Matrix::multiply_transposed folds, kept here so the oracle does not
/// call the code it checks.
std::vector<double> reference_transposed(const linalg::Matrix& a,
                                         const std::vector<double>& v) {
  std::vector<double> out(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    if (v[r] == 0.0) continue;
    for (std::size_t c = 0; c < a.cols(); ++c) out[c] += v[r] * a.at(r, c);
  }
  return out;
}

linalg::Matrix active_columns(const linalg::Matrix& a,
                              const std::vector<std::size_t>& support) {
  linalg::Matrix active(a.rows(), support.size());
  for (std::size_t c = 0; c < support.size(); ++c) {
    for (std::size_t r = 0; r < a.rows(); ++r) {
      active.at(r, c) = a.at(r, support[c]);
    }
  }
  return active;
}

OmpResult reference_omp(const linalg::Matrix& a, const std::vector<double>& y,
                        const OmpConfig& cfg) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  OmpResult result;
  result.solution.assign(n, 0.0);
  std::vector<double> residual = y;
  const double y_norm = linalg::norm2(y);
  result.residual_norm = y_norm;
  if (y_norm == 0.0) return result;

  std::vector<bool> in_support(n, false);
  std::vector<double> coeffs;
  for (std::size_t it = 0; it < cfg.max_atoms && it < m; ++it) {
    const std::vector<double> corr = reference_transposed(a, residual);
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

    const linalg::Matrix active = active_columns(a, result.support);
    coeffs = linalg::solve_spd(reference_gram(active),
                               reference_transposed(active, y));

    residual = y;
    for (std::size_t c = 0; c < result.support.size(); ++c) {
      for (std::size_t r = 0; r < m; ++r) {
        residual[r] -= coeffs[c] * active.at(r, c);
      }
    }
    result.iterations = it + 1;
    result.residual_norm = linalg::norm2(residual);
    if (result.residual_norm / y_norm < cfg.residual_tol) break;
  }
  for (std::size_t c = 0; c < result.support.size(); ++c) {
    result.solution[result.support[c]] = coeffs[c];
  }
  return result;
}

/// Runs both solvers and requires every output bit to match, including a
/// throw with the same message. Returns the reference result.
OmpResult expect_matches_reference(const OmpDictionary& dict,
                                   const std::vector<double>& y,
                                   const OmpConfig& cfg) {
  OmpResult want;
  std::string want_error;
  try {
    want = reference_omp(dict.matrix(), y, cfg);
  } catch (const std::runtime_error& e) {
    want_error = e.what();
  }
  OmpResult got;
  std::string got_error;
  try {
    got = omp_solve(dict, y, cfg);
  } catch (const std::runtime_error& e) {
    got_error = e.what();
  }
  EXPECT_EQ(got_error, want_error);
  EXPECT_EQ(got.support, want.support);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(std::memcmp(&got.residual_norm, &want.residual_norm,
                        sizeof(double)),
            0)
      << got.residual_norm << " vs " << want.residual_norm;
  EXPECT_EQ(got.solution.size(), want.solution.size());
  if (got.solution.size() == want.solution.size()) {
    EXPECT_EQ(std::memcmp(got.solution.data(), want.solution.data(),
                          got.solution.size() * sizeof(double)),
              0);
  }
  return want;
}

TEST(SensingMatrix, BernoulliEntriesHaveCorrectMagnitude) {
  const linalg::Matrix phi = bernoulli_matrix(16, 32, 3);
  const double mag = 1.0 / 4.0;
  for (std::size_t r = 0; r < 16; ++r) {
    for (std::size_t c = 0; c < 32; ++c) {
      EXPECT_DOUBLE_EQ(std::fabs(phi.at(r, c)), mag);
    }
  }
}

TEST(SensingMatrix, SparsePhiDenseEquivalence) {
  const SparsePhi phi = make_sparse_phi(32, 64, 4, 11);
  const linalg::Matrix dense = phi.to_dense();
  // Column sums: d entries of 1/d each -> 1.
  for (std::size_t c = 0; c < 64; ++c) {
    double sum = 0.0;
    for (std::size_t r = 0; r < 32; ++r) sum += dense.at(r, c);
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(SensingMatrix, SparsePhiProjectMatchesTheDenseProduct) {
  // The sparse row sums must give the dense product's bits, signed zeros
  // and cancellations included.
  const SparsePhi phi = make_sparse_phi(32, 64, 4, 11);
  const linalg::Matrix dense = phi.to_dense();
  util::Xoshiro256 rng(12);
  std::vector<double> x(64);
  for (auto& v : x) {
    v = std::round(rng.gaussian(0.0, 1000.0));
    if (rng.bounded(8) == 0) v = rng.bernoulli(0.5) ? 0.0 : -0.0;
  }
  x[7] = -x[9];
  const std::vector<double> got = phi.project(phi.row_columns(), x);
  const std::vector<double> want = dense.multiply(x);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(double)),
            0);
  EXPECT_THROW((void)phi.project(phi.row_columns(), std::vector<double>(63)),
               std::invalid_argument);
}

TEST(SensingMatrix, SparsePhiRowsDistinctPerColumn) {
  const SparsePhi phi = make_sparse_phi(16, 32, 4, 13);
  for (std::size_t c = 0; c < 32; ++c) {
    for (int a = 0; a < 4; ++a) {
      for (int b = a + 1; b < 4; ++b) {
        EXPECT_NE(phi.rows[c * 4 + static_cast<std::size_t>(a)],
                  phi.rows[c * 4 + static_cast<std::size_t>(b)]);
      }
    }
  }
}

TEST(SensingMatrix, SparsePhiRejectsNonPowerOfTwo) {
  EXPECT_THROW(make_sparse_phi(16, 32, 3, 1), std::invalid_argument);
}

TEST(Omp, RecoversExactlySparseSignal) {
  // Classic CS sanity: K-sparse alpha, enough Bernoulli measurements ->
  // OMP recovers support and values almost exactly.
  const std::size_t n = 64;
  const std::size_t m = 32;
  const std::size_t k = 5;
  const OmpDictionary dict(bernoulli_matrix(m, n, 21));
  util::Xoshiro256 rng(22);
  std::vector<double> alpha(n, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    alpha[rng.bounded(n)] = rng.gaussian(0.0, 10.0) + 5.0;
  }
  const std::vector<double> y = dict.matrix().multiply(alpha);

  OmpConfig cfg;
  cfg.max_atoms = 10;
  const OmpResult res = omp_solve(dict, y, cfg);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(res.solution[i], alpha[i], 1e-6);
  }
  EXPECT_LT(res.residual_norm, 1e-6 * linalg::norm2(y));
}

TEST(Omp, ZeroMeasurementGivesZeroSolution) {
  const OmpDictionary dict(bernoulli_matrix(8, 16, 1));
  const std::vector<double> y(8, 0.0);
  const OmpResult res = omp_solve(dict, y, OmpConfig{});
  for (double v : res.solution) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_TRUE(res.support.empty());
}

TEST(Omp, RespectsAtomBudget) {
  const OmpDictionary dict(bernoulli_matrix(32, 64, 5));
  util::Xoshiro256 rng(6);
  std::vector<double> y(32);
  for (auto& v : y) v = rng.gaussian();
  OmpConfig cfg;
  cfg.max_atoms = 7;
  const OmpResult res = omp_solve(dict, y, cfg);
  EXPECT_LE(res.support.size(), 7u);
}

TEST(Omp, SizeMismatchThrows) {
  const OmpDictionary dict(bernoulli_matrix(8, 16, 1));
  EXPECT_THROW(omp_solve(dict, std::vector<double>(7, 0.0), OmpConfig{}),
               std::invalid_argument);
}

TEST(Omp, OrthogonalMeasurementReportsItsNorm) {
  // Row 2 of the dictionary is all zeros and y points along it: every
  // correlation is exactly 0, so no atom is chosen and nothing is fitted.
  linalg::Matrix a = bernoulli_matrix(8, 16, 1);
  for (std::size_t c = 0; c < 16; ++c) a.at(2, c) = 0.0;
  const OmpDictionary dict(std::move(a));
  std::vector<double> y(8, 0.0);
  y[2] = 1.0;
  const OmpResult res = omp_solve(dict, y, OmpConfig{});
  EXPECT_TRUE(res.support.empty());
  EXPECT_EQ(res.iterations, 0u);
  EXPECT_EQ(res.residual_norm, 1.0);
  for (double v : res.solution) EXPECT_EQ(v, 0.0);
}

TEST(OmpOracle, ReconstructorDictionaryCleanAndCorruptedEcg) {
  const CsReconstructor recon(CsConfig{});
  const linalg::Matrix dense_phi = recon.phi().to_dense();
  const std::size_t n = recon.config().block_n;
  for (const std::uint64_t seed : {3u, 4u}) {
    const ecg::Record rec = ecg::make_default_record(seed);
    for (std::size_t block = 0; block < 3; ++block) {
      std::vector<double> x(n);
      for (std::size_t i = 0; i < n; ++i) {
        x[i] = static_cast<double>(rec.samples[block * n + i]);
      }
      std::vector<double> y = dense_phi.multiply(x);
      expect_matches_reference(recon.dictionary(), y, recon.config().omp);
      // Measurement words hit as stuck-at MSBs would.
      y[3] += 8000.0;
      y[77] -= 8000.0;
      y[120] = -32768.0;
      expect_matches_reference(recon.dictionary(), y, recon.config().omp);
    }
  }
}

TEST(OmpOracle, AtomBudgetAtOrAboveMeasurementCount) {
  const OmpDictionary dict(bernoulli_matrix(16, 48, 9));
  util::Xoshiro256 rng(10);
  std::vector<double> y(16);
  for (auto& v : y) v = rng.gaussian();
  for (const std::size_t max_atoms : {16u, 40u}) {
    OmpConfig cfg;
    cfg.max_atoms = max_atoms;
    cfg.residual_tol = 0.0;
    const OmpResult want = expect_matches_reference(dict, y, cfg);
    EXPECT_EQ(want.iterations, 16u);
  }
}

TEST(OmpOracle, ResidualToleranceEarlyExit) {
  const OmpDictionary dict(bernoulli_matrix(32, 64, 21));
  util::Xoshiro256 rng(23);
  std::vector<double> alpha(64, 0.0);
  for (int i = 0; i < 4; ++i) {
    alpha[rng.bounded(64)] = rng.gaussian(0.0, 10.0) + 5.0;
  }
  const std::vector<double> y = dict.matrix().multiply(alpha);
  OmpConfig cfg;
  cfg.max_atoms = 20;
  cfg.residual_tol = 1e-6;
  const OmpResult want = expect_matches_reference(dict, y, cfg);
  EXPECT_LT(want.iterations, cfg.max_atoms);
  EXPECT_LT(want.residual_norm, cfg.residual_tol * linalg::norm2(y));
}

TEST(OmpOracle, RankDeficientDictionariesThroughTheRidgeFallback) {
  // m = 12, n = 24, rank 3-6, scaled 1e3-1e8. With residual_tol = 0 OMP
  // keeps choosing atoms past the rank, the Gram of its support turns
  // singular, and solve_spd's ridge retry does the solving.
  const std::size_t m = 12;
  const std::size_t n = 24;
  const int seeds = 48;
  int fallbacks = 0;
  for (int seed = 0; seed < seeds; ++seed) {
    util::Xoshiro256 rng(1000 + static_cast<std::uint64_t>(seed));
    const auto rank = static_cast<std::size_t>(3 + seed % 4);
    const double scale = std::pow(10.0, 3 + (seed / 4) % 6);
    linalg::Matrix u(m, rank);
    linalg::Matrix v(rank, n);
    for (auto& x : u.data()) x = rng.gaussian();
    for (auto& x : v.data()) x = rng.gaussian();
    linalg::Matrix a = u.multiply(v);
    for (auto& x : a.data()) x *= scale;
    std::vector<double> y(m);
    for (auto& x : y) x = rng.gaussian() * scale;
    OmpConfig cfg;
    cfg.residual_tol = 0.0;
    const OmpDictionary dict(a);
    const OmpResult want = expect_matches_reference(dict, y, cfg);
    linalg::Matrix gram = reference_gram(active_columns(a, want.support));
    if (!want.support.empty() && !linalg::cholesky(gram)) ++fallbacks;
  }
  EXPECT_GE(fallbacks, seeds / 2)
      << "ridge fallback reached in only " << fallbacks << " of " << seeds
      << " seeds";
}

TEST(OmpDictionary, GramAndColumnNormBound) {
  // Every Gram entry is the rows-ascending sum a from-scratch Gram row
  // computes; mu is the largest column norm, and +infinity once a column's
  // squared norm is not finite.
  linalg::Matrix a = bernoulli_matrix(12, 20, 7);
  util::Xoshiro256 rng(8);
  for (auto& x : a.data()) x *= 1.0 + rng.gaussian();
  const OmpDictionary dict(a);
  double mu = 0.0;
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      double want = 0.0;
      for (std::size_t r = 0; r < a.rows(); ++r) {
        want += a.at(r, i) * a.at(r, j);
      }
      const double got = dict.gram().at(i, j);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
          << "G(" << i << ", " << j << ")";
    }
    mu = std::max(mu, std::sqrt(dict.gram().at(i, i)));
  }
  EXPECT_EQ(dict.max_column_norm(), mu);

  a.at(5, 3) = 1e300;
  EXPECT_EQ(OmpDictionary(a).max_column_norm(),
            std::numeric_limits<double>::infinity());
}

TEST(OmpOracle, TwinColumnNearTies) {
  // Each Bernoulli column has a twin with about a third of its entries one
  // ulp away, so two correlations agree to within the Gram form's rounding
  // on most iterations: the pick has to come from the exact re-check.
  const std::size_t m = 24;
  const int seeds = 64;
  const auto ties = [] {
    return util::telemetry::snapshot().counters["cs.omp_near_ties"];
  };
  const std::uint64_t ties_before = ties();
  for (int seed = 0; seed < seeds; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    util::Xoshiro256 rng(5000 + static_cast<std::uint64_t>(seed));
    const linalg::Matrix base =
        bernoulli_matrix(m, m, 6000 + static_cast<std::uint64_t>(seed));
    linalg::Matrix a(m, 2 * m);
    for (std::size_t c = 0; c < m; ++c) {
      for (std::size_t r = 0; r < m; ++r) {
        const double v = base.at(r, c);
        a.at(r, 2 * c) = v;
        a.at(r, 2 * c + 1) =
            rng.bounded(3) == 0
                ? std::nextafter(v, rng.bernoulli(0.5) ? 1.0 : -1.0)
                : v;
      }
    }
    std::vector<double> y(m);
    for (auto& v : y) v = rng.gaussian() * 1000.0;
    OmpConfig cfg;
    cfg.max_atoms = 16;
    cfg.residual_tol = 0.0;
    expect_matches_reference(OmpDictionary(std::move(a)), y, cfg);
  }
  EXPECT_GT(ties() - ties_before, 0u);
}

TEST(OmpOracle, NonFiniteAndUnderflowingInputs) {
  // An infinite or NaN measurement entry, an infinite dictionary entry and
  // a dictionary whose Gram overflows give a non-finite bound or Gram-form
  // correlation, which sends every remaining column to the exact re-check.
  const linalg::Matrix a = bernoulli_matrix(16, 32, 40);
  util::Xoshiro256 rng(41);
  std::vector<double> y(16);
  for (auto& v : y) v = rng.gaussian();
  OmpConfig cfg;
  cfg.max_atoms = 8;
  cfg.residual_tol = 0.0;
  const OmpDictionary dict(a);
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    std::vector<double> y_bad = y;
    y_bad[5] = bad;
    expect_matches_reference(dict, y_bad, cfg);
  }
  linalg::Matrix a_inf = a;
  a_inf.at(9, 4) = std::numeric_limits<double>::infinity();
  expect_matches_reference(OmpDictionary(a_inf), y, cfg);
  linalg::Matrix a_huge = a;
  for (auto& x : a_huge.data()) x *= 1e160;
  expect_matches_reference(OmpDictionary(a_huge), y, cfg);

  // Subnormal Gram entries, Gram-form products and squares of y, the
  // inputs the bound's underflow terms cover.
  linalg::Matrix a_tiny = a;
  for (auto& x : a_tiny.data()) x *= 1e-160;
  const OmpDictionary tiny(a_tiny);
  expect_matches_reference(tiny, y, cfg);
  std::vector<double> y_huge = y;
  for (auto& v : y_huge) v *= 1e150;
  expect_matches_reference(tiny, y_huge, cfg);
  linalg::Matrix a_mixed = a;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); c += 2) a_mixed.at(r, c) *= 1e-160;
  }
  expect_matches_reference(OmpDictionary(a_mixed), y, cfg);
  // Squares of about 1.5e-162 round to 0 or denorm_min, so ||y|| falls
  // short; all-subnormal entries leave ||y|| at 0 and nothing is fitted.
  std::vector<double> y_small = y;
  for (auto& v : y_small) v = (1.5 + 0.1 * v) * 1e-162;
  expect_matches_reference(dict, y_small, cfg);
  std::vector<double> y_subnormal = y;
  for (auto& v : y_subnormal) v *= 1e-310;
  EXPECT_TRUE(expect_matches_reference(dict, y_subnormal, cfg).support.empty());
}

/// The dictionary as the dense product Phi * Psi, one atom at a time:
/// the construction CsReconstructor's sparse row sums replace.
linalg::Matrix dense_dictionary(const CsConfig& cfg) {
  const linalg::Matrix phi =
      make_sparse_phi(cfg.block_m, cfg.block_n, cfg.ones_per_column,
                      cfg.phi_seed)
          .to_dense();
  linalg::Matrix a(cfg.block_m, cfg.block_n);
  std::vector<double> unit(cfg.block_n, 0.0);
  for (std::size_t j = 0; j < cfg.block_n; ++j) {
    unit[j] = 1.0;
    const std::vector<double> projected = phi.multiply(
        signal::idwt_multi_f64(unit, cfg.family, cfg.dwt_levels));
    for (std::size_t r = 0; r < cfg.block_m; ++r) a.at(r, j) = projected[r];
    unit[j] = 0.0;
  }
  return a;
}

TEST(Reconstructor, SparseDictionaryMatchesDenseProduct) {
  std::vector<CsConfig> configs(5);
  configs[1].block_n = 96;
  configs[1].block_m = 48;
  configs[1].dwt_levels = 5;
  configs[2].block_n = 100;
  configs[2].block_m = 50;
  configs[2].dwt_levels = 2;
  configs[3].ones_per_column = 2;
  configs[4].ones_per_column = 8;
  configs[4].family = signal::WaveletFamily::kDb2;
  for (const CsConfig& cfg : configs) {
    SCOPED_TRACE(testing::Message()
                 << "n=" << cfg.block_n << " m=" << cfg.block_m
                 << " levels=" << cfg.dwt_levels
                 << " d=" << cfg.ones_per_column);
    const linalg::Matrix want = dense_dictionary(cfg);
    const CsReconstructor recon(cfg);
    const linalg::Matrix& got = recon.dictionary().matrix();
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    EXPECT_EQ(std::memcmp(got.data().data(), want.data().data(),
                          want.data().size() * sizeof(double)),
              0);
  }
}

TEST(Reconstructor, RejectsBadGeometry) {
  struct Bad {
    std::size_t n, m, levels;
  };
  // m > n, m = 0, and two block lengths the inverse DWT does not keep.
  for (const Bad bad : {Bad{64, 128, 5}, Bad{256, 0, 5}, Bad{250, 125, 5},
                        Bad{257, 128, 1}}) {
    CsConfig cfg;
    cfg.block_n = bad.n;
    cfg.block_m = bad.m;
    cfg.dwt_levels = bad.levels;
    try {
      const CsReconstructor recon(cfg);
      ADD_FAILURE() << "accepted n=" << bad.n << " m=" << bad.m
                    << " levels=" << bad.levels;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("block_n=" + std::to_string(bad.n)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("block_m=" + std::to_string(bad.m)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("dwt_levels=" + std::to_string(bad.levels)),
                std::string::npos)
          << what;
    }
  }
}

TEST(Reconstructor, RecoversEcgBlockAboveRequirement) {
  // End-to-end float pipeline: compress a real synthetic ECG block and
  // reconstruct. Quality should clear the paper's 35 dB multi-lead
  // requirement on typical blocks... at 50% compression our single-lead
  // OMP ceiling is lower; we require a solid 15 dB here and track the
  // exact ceiling in EXPERIMENTS.md.
  const ecg::Record rec = ecg::make_default_record(3);
  CsConfig cfg;
  cfg.block_n = 256;
  cfg.block_m = 128;
  cfg.omp.max_atoms = 64;
  const CsReconstructor recon(cfg);

  std::vector<double> x(cfg.block_n);
  for (std::size_t i = 0; i < cfg.block_n; ++i) {
    x[i] = static_cast<double>(rec.samples[i]);
  }
  const std::vector<double> y = recon.phi().to_dense().multiply(x);
  const std::vector<double> xhat = recon.reconstruct(y);
  EXPECT_GT(metrics::snr_db(x, xhat), 15.0);
}

TEST(Reconstructor, WrongMeasurementSizeThrows) {
  CsConfig cfg;
  cfg.block_n = 64;
  cfg.block_m = 32;
  const CsReconstructor recon(cfg);
  EXPECT_THROW(recon.reconstruct(std::vector<double>(31, 0.0)),
               std::invalid_argument);
}

TEST(Reconstructor, CorruptedMeasurementsDegradeQuality) {
  const ecg::Record rec = ecg::make_default_record(4);
  CsConfig cfg;
  cfg.block_n = 256;
  cfg.block_m = 128;
  cfg.omp.max_atoms = 48;
  const CsReconstructor recon(cfg);

  std::vector<double> x(cfg.block_n);
  for (std::size_t i = 0; i < cfg.block_n; ++i) {
    x[i] = static_cast<double>(rec.samples[i]);
  }
  std::vector<double> y = recon.phi().to_dense().multiply(x);
  const std::vector<double> clean = recon.reconstruct(y);

  // Corrupt a few measurements as a stuck-at MSB would.
  y[3] += 8000.0;
  y[77] -= 8000.0;
  const std::vector<double> dirty = recon.reconstruct(y);

  EXPECT_GT(metrics::snr_db(x, clean), metrics::snr_db(x, dirty));
}

class OmpSparsitySweep : public ::testing::TestWithParam<int> {
 protected:
  // A k-sparse alpha measured through a 64 x 128 Bernoulli dictionary.
  void SetUp() override {
    const auto k = static_cast<std::size_t>(GetParam());
    util::Xoshiro256 rng(100 + static_cast<std::uint64_t>(GetParam()));
    for (std::size_t i = 0; i < k; ++i) {
      std::size_t pos = rng.bounded(n_);
      while (alpha_[pos] != 0.0) pos = (pos + 1) % n_;
      alpha_[pos] = rng.gaussian(0.0, 5.0) + 2.0;
    }
    y_ = dict_.matrix().multiply(alpha_);
    cfg_.max_atoms = 2 * k;
  }

  static constexpr std::size_t n_ = 128;
  const OmpDictionary dict_{bernoulli_matrix(64, n_, 31)};
  std::vector<double> alpha_ = std::vector<double>(n_, 0.0);
  std::vector<double> y_;
  OmpConfig cfg_;
};

TEST_P(OmpSparsitySweep, RecoveryDegradesGracefullyWithK) {
  const OmpResult res = omp_solve(dict_, y_, cfg_);
  // Well below the m/2 phase-transition, recovery is essentially exact.
  if (GetParam() <= 12) {
    for (std::size_t i = 0; i < n_; ++i) {
      EXPECT_NEAR(res.solution[i], alpha_[i], 1e-5);
    }
  } else {
    // Near/over the limit we only require the residual to shrink.
    EXPECT_LT(res.residual_norm, linalg::norm2(y_));
  }
}

TEST_P(OmpSparsitySweep, BitIdenticalToFromScratchSolve) {
  expect_matches_reference(dict_, y_, cfg_);
}

INSTANTIATE_TEST_SUITE_P(Sparsity, OmpSparsitySweep,
                         ::testing::Values(1, 2, 4, 8, 12, 20, 28));

}  // namespace
}  // namespace ulpdream::cs
