#pragma once
// Heartbeat Classifier (extension): the paper's Sec. III discusses this
// application (built on Wavelet Delineation + CS, after Braojos et al.) as
// the canonical producer of *statistical/qualitative* output whose relaxed
// precision requirements significance-based computing exploits: beats are
// sorted into morphology classes with coarse-grained boundaries, so the
// class decision tolerates far more numeric error than a waveform SNR.
//
// Pipeline (all buffers in the faulty data memory):
//   1. wavelet delineation (R/Q/S/P/T fiducials);
//   2. per-beat fixed-point features: QRS width, R amplitude, RR ratio,
//      P-wave presence, T polarity;
//   3. rule-based classification into Normal / PVC / Unknown (the early
//      classification scheme of the paper's ref [9], reduced to its
//      decision structure).
//
// Output for the SNR metric: the per-beat class labels plus class counts —
// a statistical vector in the paper's sense.

#include "ulpdream/apps/app.hpp"
#include "ulpdream/apps/delineation_app.hpp"

namespace ulpdream::apps {

enum class BeatClass : std::uint8_t { kNormal = 0, kPvc = 1, kUnknown = 2 };

struct ClassifiedBeat {
  std::int32_t r_position = 0;
  BeatClass label = BeatClass::kUnknown;
};

struct ClassifierConfig {
  DelineationConfig delineation{};
  /// QRS wider than this (seconds) marks a ventricular beat.
  double wide_qrs_s = 0.13;
  /// Premature if this beat's RR is below this fraction of the running
  /// average RR.
  double premature_rr_frac = 0.85;
  /// R amplitude must exceed this fraction of the record's max R to count
  /// as a confident detection.
  double min_r_frac = 0.3;
  std::size_t output_slots = 24;
};

class ClassifierApp final : public BioApp {
 public:
  explicit ClassifierApp(ClassifierConfig cfg = {});

  [[nodiscard]] std::string name() const override {
    return "heartbeat_classifier";
  }
  [[nodiscard]] std::size_t input_length() const override {
    return cfg_.delineation.n;
  }
  [[nodiscard]] std::size_t footprint_words() const override {
    return 3 * cfg_.delineation.n;  // the delineation stage's buffers
  }

  [[nodiscard]] std::vector<double> run(
      core::MemorySystem& system, const ecg::Record& record) const override;

  /// Structured entry point: classified beats for inspection/scoring.
  [[nodiscard]] std::vector<ClassifiedBeat> classify(
      core::MemorySystem& system, const ecg::Record& record) const;

 private:
  ClassifierConfig cfg_;
  DelineationApp delineator_;
};

}  // namespace ulpdream::apps
