#include <gtest/gtest.h>

#include <cmath>

#include "ulpdream/metrics/delineation_score.hpp"
#include "ulpdream/metrics/quality.hpp"

namespace ulpdream::metrics {
namespace {

TEST(Quality, MseZeroForIdentical) {
  const std::vector<double> x = {1.0, -2.0, 3.0};
  EXPECT_DOUBLE_EQ(mse(x, x), 0.0);
}

TEST(Quality, MseKnownValue) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {2.0, 2.0, 5.0};
  EXPECT_DOUBLE_EQ(mse(a, b), (1.0 + 0.0 + 4.0) / 3.0);
}

TEST(Quality, MseRejectsMismatch) {
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW((void)mse(a, b), std::invalid_argument);
  EXPECT_THROW((void)mse(std::vector<double>{}, std::vector<double>{}),
               std::invalid_argument);
}

TEST(Quality, SnrCeilingWhenIdentical) {
  const std::vector<double> x = {5.0, -3.0, 2.0};
  EXPECT_DOUBLE_EQ(snr_db(x, x), kSnrCeilingDb);
}

TEST(Quality, SnrFormulaMatchesPaperFormula1) {
  // Hand-computed: theo = [3,4], exp = [3,2] -> signal RMS = sqrt(12.5),
  // MSE = 2 -> SNR = 20*log10(sqrt(12.5)/sqrt(2)).
  const std::vector<double> theo = {3.0, 4.0};
  const std::vector<double> exp = {3.0, 2.0};
  const double expected = 20.0 * std::log10(std::sqrt(12.5) / std::sqrt(2.0));
  EXPECT_NEAR(snr_db(theo, exp), expected, 1e-12);
}

TEST(Quality, SnrDropsByFactorOfTenErrorIsMinus20Db) {
  std::vector<double> theo(100, 1.0);
  std::vector<double> small = theo;
  std::vector<double> big = theo;
  for (auto& v : small) v += 0.01;
  for (auto& v : big) v += 0.1;
  EXPECT_NEAR(snr_db(theo, small) - snr_db(theo, big), 20.0, 1e-9);
}

TEST(Quality, SnrDegenerateZeroReference) {
  const std::vector<double> theo = {0.0, 0.0};
  const std::vector<double> exp = {1.0, 1.0};
  EXPECT_DOUBLE_EQ(snr_db(theo, exp), -kSnrCeilingDb);
}

TEST(DelineationScore, PerfectMatch) {
  FiducialList ref = {{FiducialType::kR, 100, 500},
                      {FiducialType::kR, 300, 480}};
  const MatchScore s = match_fiducials(ref, ref, 5);
  EXPECT_EQ(s.true_positive, 2u);
  EXPECT_EQ(s.false_positive, 0u);
  EXPECT_EQ(s.false_negative, 0u);
  EXPECT_DOUBLE_EQ(s.sensitivity(), 1.0);
  EXPECT_DOUBLE_EQ(s.ppv(), 1.0);
  EXPECT_DOUBLE_EQ(s.f1(), 1.0);
}

TEST(DelineationScore, ToleranceWindow) {
  const FiducialList ref = {{FiducialType::kR, 100, 0}};
  const FiducialList near_hit = {{FiducialType::kR, 104, 0}};
  const FiducialList miss = {{FiducialType::kR, 110, 0}};
  EXPECT_EQ(match_fiducials(ref, near_hit, 5).true_positive, 1u);
  EXPECT_EQ(match_fiducials(ref, miss, 5).true_positive, 0u);
  EXPECT_EQ(match_fiducials(ref, miss, 5).false_positive, 1u);
}

TEST(DelineationScore, TypeMustMatch) {
  const FiducialList ref = {{FiducialType::kR, 100, 0}};
  const FiducialList wrong_type = {{FiducialType::kT, 100, 0}};
  const MatchScore s = match_fiducials(ref, wrong_type, 5);
  EXPECT_EQ(s.true_positive, 0u);
  EXPECT_EQ(s.false_negative, 1u);
  EXPECT_EQ(s.false_positive, 1u);
}

TEST(DelineationScore, OneToOneMatching) {
  // Two detections near one reference: only one may match.
  const FiducialList ref = {{FiducialType::kR, 100, 0}};
  const FiducialList det = {{FiducialType::kR, 99, 0},
                            {FiducialType::kR, 101, 0}};
  const MatchScore s = match_fiducials(ref, det, 5);
  EXPECT_EQ(s.true_positive, 1u);
  EXPECT_EQ(s.false_positive, 1u);
}

TEST(DelineationScore, FlattenNormalizesOrder) {
  const FiducialList a = {{FiducialType::kR, 300, 5},
                          {FiducialType::kP, 100, 2}};
  const FiducialList b = {{FiducialType::kP, 100, 2},
                          {FiducialType::kR, 300, 5}};
  EXPECT_EQ(flatten_fiducials(a, 4), flatten_fiducials(b, 4));
}

TEST(DelineationScore, FlattenPadsAndTruncates) {
  const FiducialList one = {{FiducialType::kR, 10, 1}};
  const std::vector<double> v = flatten_fiducials(one, 3);
  ASSERT_EQ(v.size(), 6u);
  EXPECT_DOUBLE_EQ(v[0], 10.0);
  EXPECT_DOUBLE_EQ(v[1], 1.0);
  EXPECT_DOUBLE_EQ(v[2], 0.0);

  FiducialList many;
  for (int i = 0; i < 10; ++i) {
    many.push_back({FiducialType::kR, i, static_cast<fixed::Sample>(i)});
  }
  EXPECT_EQ(flatten_fiducials(many, 3).size(), 6u);
}

TEST(DelineationScore, EmptyListsScorePerfect) {
  const MatchScore s = match_fiducials({}, {}, 5);
  EXPECT_DOUBLE_EQ(s.sensitivity(), 1.0);
  EXPECT_DOUBLE_EQ(s.ppv(), 1.0);
}

}  // namespace
}  // namespace ulpdream::metrics
