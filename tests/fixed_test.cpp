#include <gtest/gtest.h>

#include <cmath>

#include "ulpdream/fixed/fixed_point.hpp"
#include "ulpdream/fixed/sample.hpp"

namespace ulpdream::fixed {
namespace {

TEST(FixedPoint, RoundTripDouble) {
  const Q15 x = Q15::from_double(0.5);
  EXPECT_EQ(x.raw(), 16384);
  EXPECT_EQ(Q15::from_raw(x.raw()).raw(), x.raw());
  // Half a code rounds away from zero on either side.
  EXPECT_EQ(Q15::from_double(1.5 / 32768.0).raw(), 2);
  EXPECT_EQ(Q15::from_double(-1.5 / 32768.0).raw(), -2);
}

TEST(FixedPoint, SaturatesOnOverflow) {
  const Q15 x = Q15::from_double(2.0);
  EXPECT_EQ(x.raw(), Q15::kRawMax);
  const Q15 y = Q15::from_double(-2.0);
  EXPECT_EQ(y.raw(), Q15::kRawMin);
}

TEST(RoundedShift, RoundsHalfAwayFromZero) {
  EXPECT_EQ(rounded_shift_right<std::int64_t>(3, 1), 2);   // 1.5 -> 2
  EXPECT_EQ(rounded_shift_right<std::int64_t>(-3, 1), -2); // -1.5 -> -2
  EXPECT_EQ(rounded_shift_right<std::int64_t>(5, 2), 1);   // 1.25 -> 1
  EXPECT_EQ(rounded_shift_right<std::int64_t>(0, 5), 0);
  EXPECT_EQ(rounded_shift_right<std::int64_t>(100, 0), 100);
}

TEST(Sample, SaturateSample) {
  EXPECT_EQ(saturate_sample(40000), kSampleMax);
  EXPECT_EQ(saturate_sample(-40000), kSampleMin);
  EXPECT_EQ(saturate_sample(123), 123);
}

TEST(Sample, AddSubSaturate) {
  EXPECT_EQ(add_sat(30000, 10000), kSampleMax);
  EXPECT_EQ(sub_sat(-30000, 10000), kSampleMin);
  EXPECT_EQ(add_sat(100, -50), 50);
}

TEST(Sample, MulQ15MatchesDouble) {
  const Q15 c = Q15::from_double(0.5);
  const Sample s = 20000;
  EXPECT_EQ(narrow_q15(mul_q15(s, c)), 10000);
}

TEST(Sample, SignRunLengthKnownValues) {
  EXPECT_EQ(sign_run_length(0), 16);       // all zeros
  EXPECT_EQ(sign_run_length(-1), 16);      // all ones
  EXPECT_EQ(sign_run_length(1), 15);       // 0...01
  EXPECT_EQ(sign_run_length(-2), 15);      // 1...10
  EXPECT_EQ(sign_run_length(0x7FFF), 1);   // 0111... -> only the sign bit
  EXPECT_EQ(sign_run_length(kSampleMin), 1);  // 1000...0
  EXPECT_EQ(sign_run_length(0x0100), 7);   // 0000000100000000
}

TEST(Sample, SignRunLengthBounds) {
  for (int v = -32768; v <= 32767; v += 257) {
    const int run = sign_run_length(static_cast<Sample>(v));
    EXPECT_GE(run, 1);
    EXPECT_LE(run, 16);
  }
}

TEST(Adc, QuantizeFullScale) {
  const AdcModel adc{5.0, 0.0};
  EXPECT_EQ(adc.quantize(5.0), kSampleMax);
  EXPECT_EQ(adc.quantize(-5.0), -kSampleMax);
  EXPECT_EQ(adc.quantize(0.0), 0);
}

TEST(Adc, QuantizeClampsBeyondRange) {
  const AdcModel adc{5.0, 0.0};
  EXPECT_EQ(adc.quantize(50.0), kSampleMax);
  EXPECT_EQ(adc.quantize(-50.0), kSampleMin);
}

TEST(Adc, RoundTripWithinLsb) {
  const AdcModel adc{5.0, 0.0};
  for (double mv = -4.9; mv < 4.9; mv += 0.37) {
    const Sample s = adc.quantize(mv);
    EXPECT_NEAR(adc.to_mv(s), mv, 5.0 / 32767.0 + 1e-9);
  }
}

TEST(Adc, QuantizeWaveformMatchesScalar) {
  const AdcModel adc{5.0, 0.0};
  const std::vector<double> mv = {0.0, 1.0, -1.0, 2.5};
  const SampleVec v = quantize_waveform(mv, adc);
  ASSERT_EQ(v.size(), 4u);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(v[i], adc.quantize(mv[i]));
  }
}

class SaturationSweep : public ::testing::TestWithParam<int> {};

TEST_P(SaturationSweep, NarrowingNeverWraps) {
  // Property: narrow_q15 of any accumulator value keeps sign or saturates;
  // it must never alias across the sign boundary.
  const std::int64_t acc = static_cast<std::int64_t>(GetParam()) * 100003LL;
  const Sample s = narrow_q15(acc);
  if (acc > 0) {
    EXPECT_GE(s, 0);
  }
  if (acc < 0) {
    EXPECT_LE(s, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AccumulatorRange, SaturationSweep,
                         ::testing::Range(-20000, 20001, 1000));

}  // namespace
}  // namespace ulpdream::fixed
