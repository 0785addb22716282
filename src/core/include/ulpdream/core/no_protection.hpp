#pragma once
// Baseline EMT: the raw 16-bit sample stored as-is in the scaled memory.

#include "ulpdream/core/emt.hpp"

namespace ulpdream::core {

class NoProtection final : public Emt {
 public:
  [[nodiscard]] std::string name() const override { return "none"; }
  [[nodiscard]] int payload_bits() const override {
    return fixed::kSampleBits;
  }
  [[nodiscard]] int safe_bits() const override { return 0; }

  [[nodiscard]] std::uint32_t encode_payload(fixed::Sample s) const override {
    return static_cast<std::uint16_t>(s);
  }
  [[nodiscard]] std::uint16_t encode_safe(fixed::Sample) const override {
    return 0;
  }
  [[nodiscard]] fixed::Sample decode(
      std::uint32_t payload, std::uint16_t,
      CodecCounters* counters = nullptr) const override {
    if (counters != nullptr) ++counters->decodes;
    return static_cast<fixed::Sample>(static_cast<std::uint16_t>(payload));
  }

  [[nodiscard]] bool raw_data_path() const override { return true; }

  void encode_block(std::span<const fixed::Sample> in,
                    std::span<std::uint32_t> payload,
                    std::span<std::uint16_t> safe) const override {
    check_block_spans(in.size(), payload.size(), safe.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      payload[i] = static_cast<std::uint16_t>(in[i]);
    }
    for (std::size_t i = 0; i < safe.size(); ++i) safe[i] = 0;
  }
  void decode_block(std::span<const std::uint32_t> payload,
                    std::span<const std::uint16_t> safe,
                    std::span<fixed::Sample> out,
                    std::span<std::uint8_t> outcome) const override {
    check_decode_spans(out.size(), payload.size(), safe.size(),
                       outcome.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<fixed::Sample>(static_cast<std::uint16_t>(payload[i]));
    }
    for (std::uint8_t& o : outcome) o = 0;
  }
};

}  // namespace ulpdream::core
