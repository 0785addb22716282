#include "ulpdream/core/dream_secded.hpp"

#include <algorithm>

namespace ulpdream::core {

fixed::Sample DreamSecDed::decode(std::uint32_t payload, std::uint16_t safe,
                                  CodecCounters* counters) const {
  // Stage 1: Hamming correction on the full 22-bit codeword.
  CodecCounters ecc_counters;
  const fixed::Sample after_ecc = ecc_.decode(payload, 0, &ecc_counters);

  // Stage 2: DREAM mask forcing on the extracted data word. The mask pass
  // is idempotent on clean data, so applying it unconditionally is safe.
  const std::uint32_t data_payload = dream_.encode_payload(after_ecc);
  CodecCounters dream_counters;
  const fixed::Sample result =
      dream_.decode(data_payload, safe, &dream_counters);

  if (counters != nullptr) {
    ++counters->decodes;
    if (ecc_counters.corrected_words + dream_counters.corrected_words > 0) {
      ++counters->corrected_words;
    }
    // Uncorrectable only if ECC flagged a double AND the mask pass did not
    // change anything (the residual errors are below the protected run).
    if (ecc_counters.detected_uncorrectable > 0 &&
        dream_counters.corrected_words == 0) {
      ++counters->detected_uncorrectable;
    }
  }
  return result;
}

void DreamSecDed::encode_block(std::span<const fixed::Sample> in,
                               std::span<std::uint32_t> payload,
                               std::span<std::uint16_t> safe) const {
  check_block_spans(in.size(), payload.size(), safe.size());
  // Each stage runs as a block kernel over its own output array.
  if (!in.empty()) {
    ecc_.encode_block_raw(in.data(), payload.data(), in.size());
  }
  if (!safe.empty()) {
    dream_.encode_safe_block(in.data(), safe.data(), safe.size());
  }
}

void DreamSecDed::decode_block(std::span<const std::uint32_t> payload,
                               std::span<const std::uint16_t> safe,
                               std::span<fixed::Sample> out,
                               std::span<std::uint8_t> outcome) const {
  check_decode_spans(out.size(), payload.size(), safe.size(), outcome.size());
  // Chunked two-stage pipeline: the ECC kernel emits per-word outcomes and
  // the extracted data, the DREAM force kernel then runs over that data
  // in-place-adjacent, and the per-word flags are combined afterwards with
  // the same rules as the scalar decode() above.
  constexpr std::size_t kChunk = 1024;
  fixed::Sample after_ecc[kChunk];
  std::uint8_t dream_corrected[kChunk];
  const std::size_t n = out.size();
  for (std::size_t base = 0; base < n; base += kChunk) {
    const std::size_t len = std::min(kChunk, n - base);
    std::uint8_t* const oc = outcome.data() + base;
    ecc_.decode_block_raw(payload.data() + base, after_ecc, oc, len);
    dream_.force_block16(
        reinterpret_cast<const std::uint16_t*>(after_ecc),
        safe.empty() ? nullptr : safe.data() + base, out.data() + base,
        dream_corrected, len);
    for (std::size_t j = 0; j < len; ++j) {
      const bool ecc_corrected = oc[j] == kDecodeCorrected;
      const bool ecc_detected = oc[j] == kDecodeDetected;
      oc[j] = dream_corrected[j] != 0 || ecc_corrected ? kDecodeCorrected
              : ecc_detected                            ? kDecodeDetected
                                                        : 0;
    }
  }
}

}  // namespace ulpdream::core
