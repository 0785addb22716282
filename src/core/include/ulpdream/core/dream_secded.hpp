#pragma once
// DREAM + SEC/DED hybrid — the multi-error EMT the paper's conclusion
// calls for ("For voltages < 0.55 V, EMTs for multiple errors correction
// must be used to guarantee a reliable medical output").
//
// Layout per 16-bit word:
//  - payload: the extended-Hamming(22,16) codeword in the scaled memory
//    (like ECC SEC/DED);
//  - side: DREAM's sign + mask ID in the error-free memory (like DREAM).
//
// Decode order: Hamming first (corrects any single error, flags doubles),
// then the DREAM mask forces the sign-run MSBs of the extracted data —
// repairing exactly the multi-bit patterns that defeat SEC/DED alone, at
// the positions where they hurt most. Corrects: {any single-bit error}
// UNION {any error pattern confined to the top run+1 data bits}, and the
// union compounds: a double error with one bit inside the mask region is
// reduced to a single residual error... which the mask pass has already
// fixed if it is also in the region.
//
// Cost: 6 + 5 = 11 extra bits/word and both codecs — the price of deep
// sub-0.55 V operation.

#include "ulpdream/core/dream.hpp"
#include "ulpdream/core/ecc_secded.hpp"
#include "ulpdream/core/emt.hpp"

namespace ulpdream::core {

class DreamSecDed final : public Emt {
 public:
  DreamSecDed() = default;

  [[nodiscard]] std::string name() const override { return "dream_secded"; }
  [[nodiscard]] int payload_bits() const override {
    return EccSecDed::kPayloadBits;
  }
  [[nodiscard]] int safe_bits() const override { return dream_.safe_bits(); }

  [[nodiscard]] std::uint32_t encode_payload(fixed::Sample s) const override {
    return ecc_.encode_payload(s);
  }
  [[nodiscard]] std::uint16_t encode_safe(fixed::Sample s) const override {
    return dream_.encode_safe(s);
  }
  [[nodiscard]] fixed::Sample decode(
      std::uint32_t payload, std::uint16_t safe,
      CodecCounters* counters = nullptr) const override;

  // Hybrid runs both codecs back to back.
  [[nodiscard]] double encode_energy_pj() const override {
    return ecc_.encode_energy_pj() + dream_.encode_energy_pj();
  }
  [[nodiscard]] double decode_energy_pj() const override {
    return ecc_.decode_energy_pj() + dream_.decode_energy_pj();
  }

  void encode_block(std::span<const fixed::Sample> in,
                    std::span<std::uint32_t> payload,
                    std::span<std::uint16_t> safe) const override;
  void decode_block(std::span<const std::uint32_t> payload,
                    std::span<const std::uint16_t> safe,
                    std::span<fixed::Sample> out,
                    std::span<std::uint8_t> outcome) const override;

 private:
  Dream dream_;
  EccSecDed ecc_;
};

}  // namespace ulpdream::core
