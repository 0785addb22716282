#pragma once
// ECC SEC/DED baseline: extended Hamming(22,16) — Single Error Correction,
// Double Error Detection (the paper's reference EMT, its ref [14]).
// 5 Hamming parity bits + 1 overall parity = 6 extra bits per 16-bit word
// (paper Sec. V: 2 + log2(16) = 6). Unlike DREAM, *all* 22 bits live in
// the voltage-scaled memory: the check bits are exposed to the same stuck-
// at faults as the data — which is why SEC/DED collapses below 0.55 V when
// multi-bit faults per word become likely (it detects but cannot correct).

#include <array>

#include "ulpdream/core/emt.hpp"
#include "ulpdream/util/simd.hpp"

namespace ulpdream::core {

class EccSecDed final : public Emt {
 public:
  static constexpr int kPayloadBits = 22;
  static constexpr int kHammingBits = 21;  ///< positions 1..21 (1-based)

  EccSecDed();

  [[nodiscard]] std::string name() const override { return "ecc_secded"; }
  [[nodiscard]] int payload_bits() const override { return kPayloadBits; }
  [[nodiscard]] int safe_bits() const override { return 0; }

  [[nodiscard]] std::uint32_t encode_payload(fixed::Sample s) const override;
  [[nodiscard]] std::uint16_t encode_safe(fixed::Sample) const override {
    return 0;
  }
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

  // The ECC/DREAM decoder energy ratio (2.2x) mirrors the synthesized
  // area ratio; the encoder ratio (1.7x vs 1.28x area) reflects the wider
  // 22-bit codeword switching per write. See Dream for the calibration
  // rationale.
  [[nodiscard]] double encode_energy_pj() const override { return 0.55; }
  [[nodiscard]] double decode_energy_pj() const override { return 1.30; }

  /// Result classification of the last decodable scenario, for tests: the
  /// decode path itself only reports via CodecCounters.
  enum class Outcome { kClean, kCorrected, kDetectedUncorrectable };

  /// Decode with explicit outcome (test/diagnostic entry point).
  [[nodiscard]] fixed::Sample decode_ex(std::uint32_t payload,
                                        Outcome& outcome) const;

  // Raw block kernels behind encode_block()/decode_block(), dispatched on
  // util::simd::active_tier() with the scalar word loop as tail and
  // fallback (the SSE2 tier is the linearized scalar path — byte-table
  // gathers need AVX2). Exposed for the DREAM+ECC hybrid's pipeline and
  // the differential tests.
  void encode_block_raw(const fixed::Sample* in, std::uint32_t* payload,
                        std::size_t n) const;
  /// outcome[i] = static_cast<uint8_t>(Outcome) per word.
  void decode_block_raw(const std::uint32_t* payload, fixed::Sample* out,
                        std::uint8_t* outcome, std::size_t n) const;

 private:
  [[nodiscard]] std::uint32_t compute_checked(std::uint32_t with_data) const;
  [[nodiscard]] fixed::Sample extract_data(std::uint32_t codeword) const;

#if ULPDREAM_SIMD_X86
  std::size_t encode_avx2(const fixed::Sample* in, std::uint32_t* payload,
                          std::size_t n) const;
  std::size_t decode_avx2(const std::uint32_t* payload, fixed::Sample* out,
                          std::uint8_t* outcome, std::size_t n) const;
#endif

  /// Syndrome resolution, precomputed once per codec: what to do for each
  /// (5-bit syndrome, overall parity) pair.
  struct SyndromeEntry {
    std::uint32_t flip = 0;  ///< payload bit to XOR before extraction
    std::uint8_t outcome = 0;  ///< static_cast<Outcome>
  };

  /// Hamming position (1-based, in 1..21) of data bit i.
  std::array<int, 16> data_pos_{};
  /// Payload mask of parity-check plane k: bits whose (1-based) position
  /// has bit k set. syndrome bit k = parity of (payload & plane).
  std::array<std::uint32_t, 5> syndrome_plane_{};
  /// 64-entry syndrome -> action LUT, indexed syndrome | overall << 5.
  std::array<SyndromeEntry, 64> syndrome_lut_{};
  /// Data extraction split into two table lookups over payload bits
  /// [0, 11) and [11, 21).
  std::array<std::uint16_t, 1u << 11> extract_lo_{};
  std::array<std::uint16_t, 1u << 10> extract_hi_{};
  /// Data placement (inverse of extraction) per input byte.
  std::array<std::uint32_t, 256> place_lo_{};
  std::array<std::uint32_t, 256> place_hi_{};

  // Linearized per-byte tables. The code is XOR-linear — every parity bit,
  // the overall bit included, is an XOR of data bits — so a codeword is
  // the XOR of per-byte codewords and a syndrome the XOR of per-byte
  // syndromes. Encoding becomes two lookups + XOR and the syndrome three,
  // replacing the five popcount planes of the constructor's reference
  // path.
  std::array<std::uint32_t, 256> enc_lo_{};  ///< codeword of data byte 0
  std::array<std::uint32_t, 256> enc_hi_{};  ///< codeword of data byte 1
  /// (syndrome | overall << 5) contribution of payload bits [0,8), [8,16)
  /// and [16,22).
  std::array<std::uint8_t, 256> synd_b0_{};
  std::array<std::uint8_t, 256> synd_b1_{};
  std::array<std::uint8_t, 64> synd_b2_{};

#if ULPDREAM_SIMD_X86
  // u32-widened table copies for the gathered AVX2 kernels: vpgatherdd
  // reads 32 bits per lane, so u8/u16 tables cannot be gathered directly
  // without overreading near their end.
  std::array<std::uint32_t, 256> synd32_b0_{};
  std::array<std::uint32_t, 256> synd32_b1_{};
  std::array<std::uint32_t, 64> synd32_b2_{};
  std::array<std::uint32_t, 64> action32_{};  ///< flip | outcome << 24
  std::array<std::uint32_t, 1u << 11> extract32_lo_{};
  std::array<std::uint32_t, 1u << 10> extract32_hi_{};
#endif
};

}  // namespace ulpdream::core
