#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <vector>

#include "ulpdream/ecg/database.hpp"
#include "ulpdream/ecg/generator.hpp"
#include "ulpdream/ecg/noise.hpp"
#include "ulpdream/ecg/pqrst_model.hpp"
#include "ulpdream/ecg/rhythm.hpp"

namespace ulpdream::ecg {

// ADL finds a parameter's PrintTo in the parameter type's namespace (not
// in an unnamed one): ctest names each PathologySweep instance after it.
void PrintTo(Pathology p, std::ostream* os) { *os << pathology_name(p); }

namespace {

TEST(Pqrst, RWaveDominates) {
  const BeatMorphology m = normal_morphology();
  // One RR interval sampled at 250 points.
  std::vector<double> beat(250);
  for (std::size_t i = 0; i < beat.size(); ++i) {
    beat[i] = m.value_at(static_cast<double>(i) / 250.0);
  }
  const auto max_it = std::max_element(beat.begin(), beat.end());
  const double r_pos = static_cast<double>(max_it - beat.begin()) / 250.0;
  EXPECT_NEAR(r_pos, m.waves[2].center_frac, 0.02);
  EXPECT_GT(*max_it, 1.0);  // > 1 mV
}

TEST(Pqrst, PvcHasNoPWave) {
  const BeatMorphology m = pvc_morphology();
  EXPECT_DOUBLE_EQ(m.waves[0].amplitude_mv, 0.0);
  // PVC T wave is inverted (discordant).
  EXPECT_LT(m.waves[4].amplitude_mv, 0.0);
}

TEST(Pqrst, ValueAtSumsWaves) {
  const BeatMorphology m = normal_morphology();
  // At the R center the value is dominated by the R amplitude.
  EXPECT_NEAR(m.value_at(m.waves[2].center_frac), m.waves[2].amplitude_mv,
              0.25);
}

TEST(Rhythm, MeanRateRespected) {
  util::Xoshiro256 rng(1);
  RhythmParams p;
  p.mean_hr_bpm = 60.0;
  const auto beats = generate_rhythm(p, 120.0, rng);
  ASSERT_GT(beats.size(), 100u);
  double sum_rr = 0.0;
  for (const auto& b : beats) sum_rr += b.rr_s;
  EXPECT_NEAR(sum_rr / static_cast<double>(beats.size()), 1.0, 0.05);
}

TEST(Rhythm, BeatsAreContiguous) {
  util::Xoshiro256 rng(2);
  const auto beats = generate_rhythm(RhythmParams{}, 30.0, rng);
  for (std::size_t i = 1; i < beats.size(); ++i) {
    EXPECT_NEAR(beats[i].onset_s, beats[i - 1].onset_s + beats[i - 1].rr_s,
                1e-9);
  }
}

TEST(Rhythm, RrWithinPhysiologicBounds) {
  util::Xoshiro256 rng(3);
  RhythmParams p;
  p.afib_irregularity = 0.25;
  const auto beats = generate_rhythm(p, 60.0, rng);
  for (const auto& b : beats) {
    EXPECT_GE(b.rr_s, 0.3);
    EXPECT_LE(b.rr_s, 2.5);
  }
}

TEST(Rhythm, PvcProbabilityProducesPvcs) {
  util::Xoshiro256 rng(4);
  RhythmParams p;
  p.pvc_probability = 0.3;
  const auto beats = generate_rhythm(p, 120.0, rng);
  const auto pvc_count = std::count_if(beats.begin(), beats.end(),
                                       [](const auto& b) { return b.is_pvc; });
  EXPECT_GT(pvc_count, 10);
}

TEST(Noise, AddsBoundedPerturbation) {
  util::Xoshiro256 rng(5);
  std::vector<double> sig(1000, 0.0);
  NoiseParams p;
  add_noise(sig, 250.0, p, rng);
  double max_abs = 0.0;
  double sum = 0.0;
  for (double v : sig) {
    max_abs = std::max(max_abs, std::fabs(v));
    sum += v;
  }
  EXPECT_GT(max_abs, 0.01);  // noise was actually added
  EXPECT_LT(max_abs, 1.0);   // but bounded well below QRS amplitude
  EXPECT_NEAR(sum / 1000.0, 0.0, 0.1);
}

TEST(Generator, ProducesRequestedLength) {
  GeneratorConfig cfg;
  cfg.duration_s = 4.0;
  cfg.fs_hz = 250.0;
  const Record rec = generate_record(cfg);
  EXPECT_EQ(rec.samples.size(), 1000u);
  EXPECT_EQ(rec.samples.size(), rec.waveform_mv.size());
}

TEST(Generator, DeterministicForSeed) {
  GeneratorConfig cfg;
  cfg.seed = 99;
  const Record a = generate_record(cfg);
  const Record b = generate_record(cfg);
  EXPECT_EQ(a.samples, b.samples);
}

TEST(Generator, DifferentSeedsDiffer) {
  GeneratorConfig cfg;
  cfg.seed = 1;
  const Record a = generate_record(cfg);
  cfg.seed = 2;
  const Record b = generate_record(cfg);
  EXPECT_NE(a.samples, b.samples);
}

TEST(Generator, MostSamplesNegative) {
  // The paper's Sec. III observation: most biosignal samples are negative
  // (front-end DC offset) — our generator must reproduce it since it
  // drives the Fig. 2 stuck-at-1 asymmetry.
  const Record rec = make_default_record();
  std::size_t negative = 0;
  for (const auto s : rec.samples) {
    if (s < 0) ++negative;
  }
  EXPECT_GT(static_cast<double>(negative) /
                static_cast<double>(rec.samples.size()),
            0.6);
}

TEST(Generator, SamplesDoNotUseFullRange) {
  // DREAM's premise: ADC samples have long constant-MSB runs (values well
  // below full scale). Verify mean sign-run length is substantial.
  const Record rec = make_default_record();
  double run_sum = 0.0;
  for (const auto s : rec.samples) {
    run_sum += fixed::sign_run_length(s);
  }
  EXPECT_GT(run_sum / static_cast<double>(rec.samples.size()), 3.0);
}

TEST(Generator, GroundTruthContainsRPeaks) {
  const Record rec = make_default_record();
  EXPECT_FALSE(rec.r_locations.empty());
  // Expect roughly heart-rate many R peaks: 8.2 s at 72 bpm ~ 9-10 beats.
  EXPECT_GE(rec.r_locations.size(), 6u);
  EXPECT_LE(rec.r_locations.size(), 14u);
  // Each R location must carry a matching truth annotation.
  std::size_t r_truth = 0;
  for (const auto& f : rec.truth) {
    if (f.type == metrics::FiducialType::kR) ++r_truth;
  }
  EXPECT_EQ(r_truth, rec.r_locations.size());
}

TEST(Generator, RPeaksAreLocalMaxima) {
  const Record rec = make_default_record();
  for (const std::size_t r : rec.r_locations) {
    if (r < 6 || r + 6 >= rec.samples.size()) continue;
    // The true signal maximum in a +/-6 sample window must lie within a
    // few samples of the annotated R position (the R Gaussian is ~2
    // samples wide, so amplitude at +/-1 sample already drops steeply —
    // compare positions, not amplitudes).
    std::size_t argmax = r - 6;
    for (std::size_t i = r - 6; i <= r + 6; ++i) {
      if (rec.samples[i] > rec.samples[argmax]) argmax = i;
    }
    EXPECT_LE(argmax > r ? argmax - r : r - argmax, 3u);
  }
}

TEST(Generator, AfibHasNoPWaves) {
  GeneratorConfig cfg;
  cfg.pathology = Pathology::kAtrialFib;
  const Record rec = generate_record(cfg);
  for (const auto& f : rec.truth) {
    EXPECT_NE(f.type, metrics::FiducialType::kP);
  }
}

TEST(Generator, BradycardiaSlowerThanTachycardia) {
  GeneratorConfig cfg;
  cfg.pathology = Pathology::kBradycardia;
  cfg.duration_s = 30.0;
  const Record brady = generate_record(cfg);
  cfg.pathology = Pathology::kTachycardia;
  const Record tachy = generate_record(cfg);
  EXPECT_LT(brady.r_locations.size(), tachy.r_locations.size());
}

TEST(Database, CoversAllPathologies) {
  DatabaseConfig cfg;
  cfg.records_per_pathology = 1;
  const auto db = make_database(cfg);
  EXPECT_EQ(db.size(), 6u);
  // Names must be distinct.
  for (std::size_t i = 0; i < db.size(); ++i) {
    for (std::size_t j = i + 1; j < db.size(); ++j) {
      EXPECT_NE(db[i].name, db[j].name);
    }
  }
}

TEST(Database, RecordsLongEnoughForApps) {
  const auto db = make_database(DatabaseConfig{});
  for (const auto& rec : db) {
    EXPECT_GE(rec.samples.size(), 2048u) << rec.name;
  }
}

class PathologySweep : public ::testing::TestWithParam<Pathology> {};

TEST_P(PathologySweep, GeneratesValidBoundedSignal) {
  GeneratorConfig cfg;
  cfg.pathology = GetParam();
  cfg.seed = 31;
  const Record rec = generate_record(cfg);
  ASSERT_FALSE(rec.samples.empty());
  // Signal must not rail the ADC.
  for (const auto s : rec.samples) {
    EXPECT_GT(s, fixed::kSampleMin + 100);
    EXPECT_LT(s, fixed::kSampleMax - 100);
  }
  EXPECT_FALSE(rec.r_locations.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllPathologies, PathologySweep,
    ::testing::Values(Pathology::kNormalSinus, Pathology::kBradycardia,
                      Pathology::kTachycardia, Pathology::kPvcBigeminy,
                      Pathology::kAtrialFib, Pathology::kStElevation));

}  // namespace
}  // namespace ulpdream::ecg
