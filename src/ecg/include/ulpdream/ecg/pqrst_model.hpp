#pragma once
// Per-beat ECG morphology as a sum of Gaussian bumps, one per wave
// (P, Q, R, S, T) — the time-domain reduction of the McSharry dynamic
// model. This is the MIT-BIH substitute's morphological core: it produces
// physiologically plausible PQRST complexes whose wave positions are known
// exactly, which also gives the delineator ground truth for free.

#include <array>

namespace ulpdream::ecg {

/// One Gaussian wave component. Center is expressed as a fraction of the
/// RR interval (0 = this beat's onset), width as a fraction as well.
struct Wave {
  double amplitude_mv;
  double center_frac;
  double width_frac;
};

/// Morphology = the five named waves in order P, Q, R, S, T.
struct BeatMorphology {
  std::array<Wave, 5> waves;

  /// Millivolt value of the beat waveform at `t_frac` in [0, 1).
  [[nodiscard]] double value_at(double t_frac) const noexcept;
};

/// Textbook-normal adult morphology (lead II flavored).
[[nodiscard]] BeatMorphology normal_morphology();

/// Premature-ventricular-contraction morphology: absent P, wide and tall
/// QRS with inverted T.
[[nodiscard]] BeatMorphology pvc_morphology();

/// Morphology with ST-segment elevation (ischemia-like).
[[nodiscard]] BeatMorphology st_elevation_morphology();

/// Morphology with fibrillatory baseline instead of a P wave.
[[nodiscard]] BeatMorphology afib_morphology();

}  // namespace ulpdream::ecg
