#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "ulpdream/signal/buffer.hpp"
#include "ulpdream/signal/morphology.hpp"
#include "ulpdream/signal/wavelet.hpp"
#include "ulpdream/util/rng.hpp"

namespace ulpdream::signal {
namespace {

fixed::SampleVec sine_wave(std::size_t n, double cycles, double amp) {
  fixed::SampleVec v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<fixed::Sample>(
        amp * std::sin(2.0 * std::numbers::pi * cycles *
                       static_cast<double>(i) / static_cast<double>(n)));
  }
  return v;
}

TEST(Buffer, VecBufferRoundTrip) {
  VecBuffer b(8);
  b.set(3, 42);
  EXPECT_EQ(b.get(3), 42);
  EXPECT_EQ(b.size(), 8u);
}

TEST(Buffer, LoadStoreHelpers) {
  VecBuffer b(4);
  load(b, {1, 2, 3, 4});
  EXPECT_EQ(store(b, 4), (fixed::SampleVec{1, 2, 3, 4}));
}

TEST(ReflectIndex, MirrorsAtBothEnds) {
  EXPECT_EQ(reflect_index(0, 10), 0u);
  EXPECT_EQ(reflect_index(-1, 10), 1u);
  EXPECT_EQ(reflect_index(-3, 10), 3u);
  EXPECT_EQ(reflect_index(10, 10), 8u);
  EXPECT_EQ(reflect_index(12, 10), 6u);
  EXPECT_EQ(reflect_index(5, 1), 0u);
}

TEST(WaveletBank, OrthogonalityConditions) {
  for (const WaveletFamily family :
       {WaveletFamily::kHaar, WaveletFamily::kDb2, WaveletFamily::kDb4}) {
    const WaveletBank& bank = wavelet_bank(family);
    // Sum of lo = sqrt(2); sum of hi = 0; unit energy.
    double sum_lo = 0.0;
    double sum_hi = 0.0;
    double energy = 0.0;
    for (double v : bank.lo_d) sum_lo += v;
    for (double v : bank.hi_d) sum_hi += v;
    for (double v : bank.lo_d) energy += v * v;
    EXPECT_NEAR(sum_lo, std::numbers::sqrt2, 1e-9) << bank.name;
    EXPECT_NEAR(sum_hi, 0.0, 1e-9) << bank.name;
    EXPECT_NEAR(energy, 1.0, 1e-9) << bank.name;
  }
}

TEST(WaveletF64, PerfectReconstructionAllFamilies) {
  util::Xoshiro256 rng(42);
  std::vector<double> x(128);
  for (auto& v : x) v = rng.gaussian(0.0, 100.0);
  for (const WaveletFamily family :
       {WaveletFamily::kHaar, WaveletFamily::kDb2, WaveletFamily::kDb4}) {
    const std::vector<double> coeffs = dwt_multi_f64(x, family, 3);
    const std::vector<double> back = idwt_multi_f64(coeffs, family, 3);
    ASSERT_EQ(back.size(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_NEAR(back[i], x[i], 1e-9) << wavelet_bank(family).name;
    }
  }
}

TEST(WaveletF64, EnergyPreservation) {
  util::Xoshiro256 rng(7);
  std::vector<double> x(256);
  for (auto& v : x) v = rng.gaussian();
  const std::vector<double> c = dwt_multi_f64(x, WaveletFamily::kDb4, 4);
  double ex = 0.0;
  double ec = 0.0;
  for (double v : x) ex += v * v;
  for (double v : c) ec += v * v;
  EXPECT_NEAR(ec / ex, 1.0, 1e-9);  // orthonormal transform
}

TEST(WaveletFixed, HaarLevelMatchesAnalytic) {
  // Haar: approx = (x0+x1)/2 * (2/sqrt2 * q15 scaling): with the Q15 bank
  // embedding 1/sqrt2 per tap, approx ~= (x0 + x1)/sqrt2.
  const std::size_t n = 8;
  VecBuffer in(fixed::SampleVec{1000, 1000, 2000, 2000, -500, -500, 0, 0});
  VecBuffer approx(n / 2);
  VecBuffer detail(n / 2);
  const FixedBank bank = fixed_bank(WaveletFamily::kHaar);
  dwt_level(in, n, bank, approx, detail);
  EXPECT_NEAR(approx.get(0), static_cast<int>(2000.0 / std::numbers::sqrt2),
              3);
  EXPECT_NEAR(detail.get(0), 0, 3);
  EXPECT_NEAR(approx.get(2), static_cast<int>(-1000.0 / std::numbers::sqrt2),
              3);
}

TEST(WaveletFixed, MultiLevelTracksFloatReference) {
  const std::size_t n = 256;
  const fixed::SampleVec x = sine_wave(n, 3.0, 8000.0);
  VecBuffer in(x);
  VecBuffer out(n);
  VecBuffer scratch(n);
  const FixedBank bank = fixed_bank(WaveletFamily::kDb4);
  const auto layout = dwt_multi(in, n, bank, 4, out, scratch);
  ASSERT_EQ(layout.size(), 5u);  // approx + 4 details
  EXPECT_EQ(layout[0].length, n / 16);

  const std::vector<double> ref =
      dwt_multi_f64(fixed::to_doubles(x), WaveletFamily::kDb4, 4);
  // Fixed-point coefficients should track the float reference within a
  // small relative tolerance (quantization of taps + rounding).
  double err = 0.0;
  double mag = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    err += std::pow(ref[i] - static_cast<double>(out.get(i)), 2);
    mag += ref[i] * ref[i];
  }
  EXPECT_LT(std::sqrt(err / mag), 0.02);
}

TEST(WaveletFixed, SwtDetailFlatSignalIsZero) {
  const std::size_t n = 64;
  VecBuffer in(fixed::SampleVec(n, 5000));
  VecBuffer out(n);
  const FixedBank bank = fixed_bank(WaveletFamily::kDb2);
  swt_detail(in, n, bank, 2, out);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(out.get(i), 0, 8);
  }
}

TEST(WaveletFixed, SwtDetailRespondsToStep) {
  const std::size_t n = 64;
  fixed::SampleVec x(n, 0);
  for (std::size_t i = n / 2; i < n; ++i) x[i] = 8000;
  VecBuffer in(x);
  VecBuffer out(n);
  const FixedBank bank = fixed_bank(WaveletFamily::kDb2);
  swt_detail(in, n, bank, 2, out);
  int peak = 0;
  for (std::size_t i = 0; i < n; ++i) {
    peak = std::max(peak, std::abs(static_cast<int>(out.get(i))));
  }
  EXPECT_GT(peak, 2000);
  // Far from the step the detail is ~0.
  EXPECT_NEAR(out.get(5), 0, 8);
  EXPECT_NEAR(out.get(n - 5), 0, 8);
}

TEST(Morphology, ErodeDilateKnownValues) {
  VecBuffer in(fixed::SampleVec{5, 1, 4, 9, 2});
  VecBuffer out(5);
  erode(in, out, 1, 5);
  EXPECT_EQ(store(out, 5), (fixed::SampleVec{1, 1, 1, 2, 2}));
  dilate(in, out, 1, 5);
  EXPECT_EQ(store(out, 5), (fixed::SampleVec{5, 5, 9, 9, 9}));
}

TEST(Morphology, OpeningRemovesPositiveImpulse) {
  const std::size_t n = 32;
  fixed::SampleVec x(n, 100);
  x[16] = 10000;  // narrow positive spike
  VecBuffer in(x);
  VecBuffer tmp(n);
  VecBuffer out(n);
  open(in, tmp, out, 2, n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out.get(i), 100);
}

TEST(Morphology, ClosingRemovesNegativeImpulse) {
  const std::size_t n = 32;
  fixed::SampleVec x(n, 100);
  x[16] = -10000;
  VecBuffer in(x);
  VecBuffer tmp(n);
  VecBuffer out(n);
  close(in, tmp, out, 2, n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(out.get(i), 100);
}

TEST(Morphology, IdempotenceOfOpening) {
  // Property: opening is idempotent — open(open(x)) == open(x).
  util::Xoshiro256 rng(5);
  const std::size_t n = 128;
  fixed::SampleVec x(n);
  for (auto& v : x) v = static_cast<fixed::Sample>(rng.gaussian(0, 3000));
  VecBuffer in(x);
  VecBuffer tmp(n);
  VecBuffer once(n);
  open(in, tmp, once, 3, n);
  VecBuffer twice(n);
  open(once, tmp, twice, 3, n);
  EXPECT_EQ(store(once, n), store(twice, n));
}

TEST(Morphology, ErosionAntiExtensivity) {
  // erode(x) <= x <= dilate(x) pointwise.
  util::Xoshiro256 rng(6);
  const std::size_t n = 100;
  fixed::SampleVec x(n);
  for (auto& v : x) v = static_cast<fixed::Sample>(rng.gaussian(0, 5000));
  VecBuffer in(x);
  VecBuffer lo(n);
  VecBuffer hi(n);
  erode(in, lo, 4, n);
  dilate(in, hi, 4, n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LE(lo.get(i), x[i]);
    EXPECT_GE(hi.get(i), x[i]);
  }
}

class DwtLevelSweep : public ::testing::TestWithParam<
                          std::tuple<WaveletFamily, int>> {};

TEST_P(DwtLevelSweep, FixedTransformPreservesEnergyApproximately) {
  const auto [family, levels] = GetParam();
  const std::size_t n = 512;
  const fixed::SampleVec x = sine_wave(n, 5.0, 6000.0);
  VecBuffer in(x);
  VecBuffer out(n);
  VecBuffer scratch(n);
  const FixedBank bank = fixed_bank(family);
  dwt_multi(in, n, bank, static_cast<std::size_t>(levels), out, scratch);
  double ein = 0.0;
  double eout = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ein += std::pow(static_cast<double>(x[i]), 2);
    eout += std::pow(static_cast<double>(out.get(i)), 2);
  }
  // Orthonormal-ish in fixed point: energy ratio within 5%.
  EXPECT_NEAR(eout / ein, 1.0, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndLevels, DwtLevelSweep,
    ::testing::Combine(::testing::Values(WaveletFamily::kHaar,
                                         WaveletFamily::kDb2,
                                         WaveletFamily::kDb4),
                       ::testing::Values(1, 2, 3, 4, 5)));

}  // namespace
}  // namespace ulpdream::signal
