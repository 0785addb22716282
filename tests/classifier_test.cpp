#include <gtest/gtest.h>

#include <ostream>

#include "ulpdream/apps/classifier_app.hpp"
#include "ulpdream/core/factory.hpp"
#include "ulpdream/core/no_protection.hpp"
#include "ulpdream/ecg/database.hpp"
#include "ulpdream/mem/ber_model.hpp"

namespace ulpdream::ecg {

// ADL finds a parameter's PrintTo in the parameter type's namespace (not
// in an unnamed one): ctest names each ClassifierPathologySweep instance
// after it.
void PrintTo(Pathology p, std::ostream* os) { *os << pathology_name(p); }

}  // namespace ulpdream::ecg

namespace ulpdream::apps {
namespace {

core::MemorySystem clean_system() {
  static const core::NoProtection none;
  return core::MemorySystem(none);
}

TEST(ClassifierApp, FactoryIntegration) {
  const auto app = make_app("heartbeat_classifier");
  EXPECT_EQ(app->name(), "heartbeat_classifier");
  EXPECT_EQ(app_names().size(), 6u);
  EXPECT_EQ(paper_app_names().size(), 5u);  // the paper's set is unchanged
}

TEST(ClassifierApp, NormalSinusMostlyNormalBeats) {
  const ClassifierApp app;
  auto sys = clean_system();
  const ecg::Record rec = ecg::make_default_record(11);
  const auto beats = app.classify(sys, rec);
  ASSERT_GE(beats.size(), 5u);
  std::size_t normal = 0;
  for (const auto& b : beats) {
    if (b.label == BeatClass::kNormal) ++normal;
  }
  EXPECT_GE(static_cast<double>(normal) / static_cast<double>(beats.size()),
            0.8);
}

TEST(ClassifierApp, PvcRecordYieldsPvcDetections) {
  ecg::GeneratorConfig cfg;
  cfg.pathology = ecg::Pathology::kPvcBigeminy;
  cfg.seed = 13;
  cfg.duration_s = 8.2;
  const ecg::Record rec = ecg::generate_record(cfg);

  const ClassifierApp app;
  auto sys = clean_system();
  const auto beats = app.classify(sys, rec);
  std::size_t pvc = 0;
  for (const auto& b : beats) {
    if (b.label == BeatClass::kPvc) ++pvc;
  }
  EXPECT_GT(pvc, 0u);
}

TEST(ClassifierApp, OutputVectorIsStatistical) {
  const ClassifierApp app;
  auto sys = clean_system();
  const ecg::Record rec = ecg::make_default_record(11);
  const auto out = app.run(sys, rec);
  ASSERT_GE(out.size(), 3u);
  // Class counts must sum to the number of labelled beats.
  const double total = out[0] + out[1] + out[2];
  EXPECT_GT(total, 0.0);
  // Labels are small integers.
  for (std::size_t i = 3; i < out.size(); ++i) {
    EXPECT_GE(out[i], 0.0);
    EXPECT_LE(out[i], 2.0);
  }
}

TEST(ClassifierApp, QualitativeOutputToleratesModerateFaults) {
  // The paper's Sec. III point: classification output relaxes reliability
  // requirements. At 0.70 V (where waveform SNR already dips) the class
  // counts should barely move under DREAM.
  const ClassifierApp app;
  const ecg::Record rec = ecg::make_default_record(11);

  auto clean_sys = clean_system();
  const auto clean = app.run(clean_sys, rec);

  const auto ber = mem::make_ber_model("log-linear");
  util::Xoshiro256 rng(5);
  std::size_t agree = 0;
  const std::size_t trials = 10;
  const auto dream = core::make_emt("dream");
  for (std::size_t t = 0; t < trials; ++t) {
    const mem::FaultMap map = mem::FaultMap::random(
        mem::MemoryGeometry::kWords16, 22, ber->ber(0.70), rng);
    core::MemorySystem sys(*dream);
    sys.attach_faults(&map);
    const auto noisy = app.run(sys, rec);
    if (noisy[0] == clean[0] && noisy[1] == clean[1]) ++agree;
  }
  EXPECT_GE(agree, trials * 7 / 10);
}

TEST(ClassifierApp, FitsDeviceMemory) {
  const ClassifierApp app;
  EXPECT_LE(app.footprint_words(), mem::MemoryGeometry::kWords16);
}

class ClassifierPathologySweep
    : public ::testing::TestWithParam<ecg::Pathology> {};

TEST_P(ClassifierPathologySweep, ProducesLabelsForEveryPathology) {
  ecg::GeneratorConfig cfg;
  cfg.pathology = GetParam();
  cfg.seed = 77;
  const ecg::Record rec = ecg::generate_record(cfg);
  const ClassifierApp app;
  auto sys = clean_system();
  const auto beats = app.classify(sys, rec);
  EXPECT_FALSE(beats.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllPathologies, ClassifierPathologySweep,
    ::testing::Values(ecg::Pathology::kNormalSinus,
                      ecg::Pathology::kBradycardia,
                      ecg::Pathology::kTachycardia,
                      ecg::Pathology::kPvcBigeminy,
                      ecg::Pathology::kAtrialFib,
                      ecg::Pathology::kStElevation));

}  // namespace
}  // namespace ulpdream::apps
