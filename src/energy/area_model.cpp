#include "ulpdream/energy/area_model.hpp"

#include <stdexcept>

namespace ulpdream::energy {

CodecArea codec_area(const std::string& emt_name) {
  // DREAM: the encoder is a leading-bit counter (priority encoder) plus
  // the sign tap; the decoder is a 16-entry mask LUT, AND/OR lane, 2:1 mux
  // and the set-one-bit NOT stage. ECC(22,16): 5+1 parity trees on encode;
  // syndrome trees, a 5-to-22 corrector decode and the data extractor on
  // decode. Ratios fixed to the paper's synthesis result: encoder +28%,
  // decoder +120%.
  if (emt_name == "none") return {0.0, 0.0};
  if (emt_name == "dream") return {180.0, 310.0};
  if (emt_name == "ecc_secded") return {180.0 * 1.28, 310.0 * 2.20};
  if (emt_name == "dream_secded") {
    // Both codecs instantiated.
    return {180.0 + 180.0 * 1.28, 310.0 + 310.0 * 2.20};
  }
  throw std::invalid_argument("codec_area: no synthesis figure for EMT '" +
                              emt_name + "'");
}

double memory_area_overhead(const core::Emt& emt) {
  return static_cast<double>(emt.extra_bits()) / 16.0;
}

}  // namespace ulpdream::energy
