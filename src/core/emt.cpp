#include "ulpdream/core/emt.hpp"

#include <stdexcept>

namespace ulpdream::core {

void Emt::check_block_spans(std::size_t in_size, std::size_t payload_size,
                            std::size_t safe_size) const {
  if (payload_size != in_size) {
    throw std::invalid_argument("Emt block codec: payload span length");
  }
  if (safe_size != in_size && !(safe_size == 0 && safe_bits() == 0)) {
    throw std::invalid_argument("Emt block codec: safe span length");
  }
}

void Emt::encode_block(std::span<const fixed::Sample> in,
                       std::span<std::uint32_t> payload,
                       std::span<std::uint16_t> safe) const {
  check_block_spans(in.size(), payload.size(), safe.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    payload[i] = encode_payload(in[i]);
  }
  if (!safe.empty()) {
    for (std::size_t i = 0; i < in.size(); ++i) {
      safe[i] = encode_safe(in[i]);
    }
  }
}

void Emt::check_decode_spans(std::size_t out_size, std::size_t payload_size,
                             std::size_t safe_size,
                             std::size_t outcome_size) const {
  check_block_spans(out_size, payload_size, safe_size);
  if (outcome_size != out_size) {
    throw std::invalid_argument("Emt block codec: outcome span length");
  }
}

void Emt::decode_block(std::span<const std::uint32_t> payload,
                       std::span<const std::uint16_t> safe,
                       std::span<fixed::Sample> out,
                       std::span<std::uint8_t> outcome) const {
  check_decode_spans(out.size(), payload.size(), safe.size(), outcome.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    CodecCounters word;
    out[i] = decode(payload[i], safe.empty() ? 0 : safe[i], &word);
    outcome[i] = static_cast<std::uint8_t>(
        (word.corrected_words != 0 ? kDecodeCorrected : 0) |
        (word.detected_uncorrectable != 0 ? kDecodeDetected : 0));
  }
}

}  // namespace ulpdream::core
