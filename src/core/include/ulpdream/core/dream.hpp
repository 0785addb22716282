#pragma once
// DREAM — Dynamic eRror compEnsation And Masking (the paper's Sec. IV).
//
// Observation: ADC samples of biosignals rarely use the full 16-bit range;
// each word starts with a run of identical MSBs (the sign extension), and
// errors on exactly those MSB positions are the ones that destroy output
// quality (Fig. 2). DREAM therefore:
//
//  WRITE: stores the sample unmodified in the faulty memory, and in
//  parallel computes the length of the run of sign-valued MSBs; the run
//  length (mask ID, log2(16) = 4 bits) concatenated with the sign bit is
//  stored in a small always-on side memory (1 + 4 = 5 extra bits/word,
//  paper Formula 2).
//
//  READ: the mask ID is expanded to a bit mask via a lookup table; an AND
//  (sign 0) or OR (sign 1) against the corrupted payload forces the masked
//  MSBs back to the sign value, a 2:1 mux selected by the sign picks the
//  result, and one additional bit — the first bit after the run, which by
//  definition of a maximal run is always the inverted sign — is restored
//  by the "set one bit" block. DREAM hence corrects *any* number of errors
//  within the top run+1 bit positions, which is exactly where they hurt.
//
// The mask-ID width is configurable (default 4 bits = exact run lengths)
// to support the D1 ablation in DESIGN.md: narrower IDs quantize the run
// length downward, shrinking both the protected region and the side-memory
// cost. The inverted-bit trick is only sound when the recorded run length
// is exact, so it is applied only at full resolution.

#include "ulpdream/core/emt.hpp"

namespace ulpdream::core {

class Dream final : public Emt {
 public:
  /// `mask_id_bits` in [1, 4]; 4 reproduces the paper exactly.
  explicit Dream(int mask_id_bits = 4);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] int payload_bits() const override {
    return fixed::kSampleBits;
  }
  [[nodiscard]] int safe_bits() const override { return 1 + mask_id_bits_; }

  [[nodiscard]] std::uint32_t encode_payload(fixed::Sample s) const override;
  [[nodiscard]] std::uint16_t encode_safe(fixed::Sample s) const override;
  [[nodiscard]] fixed::Sample decode(
      std::uint32_t payload, std::uint16_t safe,
      CodecCounters* counters = nullptr) const override;

  void encode_block(std::span<const fixed::Sample> in,
                    std::span<std::uint32_t> payload,
                    std::span<std::uint16_t> safe) const override;
  void decode_block(std::span<const std::uint32_t> payload,
                    std::span<const std::uint16_t> safe,
                    std::span<fixed::Sample> out,
                    std::span<std::uint8_t> outcome) const override;

  // Calibrated against the paper's relative numbers: with these values and
  // the applications' (read-heavy) access mixes, the average protection
  // overhead across the 0.5-0.9 V sweep lands at ~34% (DREAM) and ~55%
  // (ECC SEC/DED) — Sec. VI-B. See EccSecDed for the ECC side of the
  // calibration.
  [[nodiscard]] double encode_energy_pj() const override { return 0.35; }
  [[nodiscard]] double decode_energy_pj() const override { return 0.55; }

  /// The run length the decoder will assume for a given sample (after
  /// mask-ID quantization). Exposed for property tests.
  [[nodiscard]] int recorded_run(fixed::Sample s) const;

  [[nodiscard]] int mask_id_bits() const noexcept { return mask_id_bits_; }

  // Raw block kernels behind encode_block()/decode_block(): the AVX2
  // kernels (16 codewords per iteration) when util::simd::active_tier()
  // is kAvx2, with the scalar word loop as their tail and as the whole
  // path otherwise. Exposed so the DREAM+ECC hybrid can pipeline them and
  // the differential tests can drive both tiers directly.

  /// safe[i] = encode_safe(in[i]) for i < n.
  void encode_safe_block(const fixed::Sample* in, std::uint16_t* safe,
                         std::size_t n) const;
  /// The Fig. 3 mask-force datapath over a block: out[i] is the decoded
  /// sample, corrected[i] is 1 where forcing changed the stored bits.
  /// `safe == nullptr` reads as all-zero side words (the empty-span
  /// decode_block case). `payload` words are truncated to 16 bits.
  void force_block(const std::uint32_t* payload, const std::uint16_t* safe,
                   fixed::Sample* out, std::uint8_t* corrected,
                   std::size_t n) const;
  /// force_block() for data already narrowed to 16 bits.
  void force_block16(const std::uint16_t* data, const std::uint16_t* safe,
                     fixed::Sample* out, std::uint8_t* corrected,
                     std::size_t n) const;

 private:
  /// Scalar mask-forcing core shared by decode() and decode_block().
  [[nodiscard]] std::uint16_t decode_word(std::uint16_t data,
                                          std::uint16_t safe,
                                          bool& corrected) const;

  int mask_id_bits_;
  int run_step_;  ///< run-length quantization step = 16 / 2^mask_id_bits
};

}  // namespace ulpdream::core
