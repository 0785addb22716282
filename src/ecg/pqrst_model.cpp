#include "ulpdream/ecg/pqrst_model.hpp"

#include <cmath>

namespace ulpdream::ecg {

double BeatMorphology::value_at(double t_frac) const noexcept {
  double v = 0.0;
  for (const Wave& w : waves) {
    const double d = (t_frac - w.center_frac) / w.width_frac;
    v += w.amplitude_mv * std::exp(-0.5 * d * d);
  }
  return v;
}

BeatMorphology normal_morphology() {
  // Amplitudes in mV; centers/widths as fractions of the RR interval.
  // Values chosen to match typical lead-II relative amplitudes:
  // P ~0.15 mV, Q ~-0.1, R ~1.2, S ~-0.25, T ~0.3.
  return BeatMorphology{{{
      {0.15, 0.18, 0.025},   // P
      {-0.10, 0.265, 0.008}, // Q
      {1.20, 0.285, 0.010},  // R
      {-0.25, 0.305, 0.009}, // S
      {0.30, 0.50, 0.045},   // T
  }}};
}

BeatMorphology pvc_morphology() {
  // PVC: no P wave, broad high-amplitude QRS, discordant (inverted) T.
  return BeatMorphology{{{
      {0.0, 0.18, 0.025},    // P absent
      {-0.20, 0.25, 0.020},  // Q deep and wide
      {1.60, 0.30, 0.030},   // R broad
      {-0.45, 0.36, 0.025},  // S deep
      {-0.35, 0.55, 0.055},  // T inverted
  }}};
}

BeatMorphology st_elevation_morphology() {
  BeatMorphology m = normal_morphology();
  // Raise the T wave and broaden it toward the QRS to mimic an elevated
  // ST segment merging into T.
  m.waves[4] = {0.55, 0.44, 0.080};
  return m;
}

BeatMorphology afib_morphology() {
  BeatMorphology m = normal_morphology();
  m.waves[0].amplitude_mv = 0.0;  // absent organized P activity
  return m;
}

}  // namespace ulpdream::ecg
