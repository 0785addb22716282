#pragma once
// Error Mitigation Technique (EMT) interface — the abstraction the paper
// compares instances of (no protection, DREAM, ECC SEC/DED).
//
// An EMT splits each 16-bit sample into:
//  - a *payload* of payload_bits() stored in the voltage-scaled (faulty)
//    data memory — the data word itself plus any check bits that are
//    scaled along with it (ECC stores its 6 check bits here);
//  - a *safe word* of safe_bits() stored in the small error-free side
//    memory kept at nominal voltage (DREAM stores sign + mask ID here).
//
// decode() reconstructs the sample from the possibly-corrupted payload and
// the intact safe word. The split mirrors the hardware cost asymmetry that
// drives the paper's energy result: payload bits pay scaled-memory energy
// per access, safe bits pay nominal-voltage energy per access.

#include <cstdint>
#include <span>
#include <string>

#include "ulpdream/fixed/sample.hpp"

namespace ulpdream::core {

/// Decode-side observability: how often the technique corrected or gave up.
struct CodecCounters {
  std::uint64_t decodes = 0;
  std::uint64_t corrected_words = 0;        ///< decode changed >= 1 bit
  std::uint64_t detected_uncorrectable = 0; ///< flagged but not fixed (ECC DED)

  void reset() { *this = CodecCounters{}; }
};

/// Per-word outcome bits of Emt::decode_block(): 0 for a plain decode,
/// else an OR of these — the per-word form of the CodecCounters fields.
inline constexpr std::uint8_t kDecodeCorrected = 1;  ///< corrected_words
inline constexpr std::uint8_t kDecodeDetected = 2;   ///< detected_uncorrectable

class Emt {
 public:
  virtual ~Emt() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Bits stored per word in the voltage-scaled data memory (>= 16).
  [[nodiscard]] virtual int payload_bits() const = 0;
  /// Bits stored per word in the error-free side memory (>= 0).
  [[nodiscard]] virtual int safe_bits() const = 0;
  /// Paper Formula 2 / Sec. V: total extra bits per 16-bit data word.
  [[nodiscard]] int extra_bits() const {
    return (payload_bits() - fixed::kSampleBits) + safe_bits();
  }

  [[nodiscard]] virtual std::uint32_t encode_payload(
      fixed::Sample s) const = 0;
  [[nodiscard]] virtual std::uint16_t encode_safe(fixed::Sample s) const = 0;

  /// Reconstructs the sample; updates `counters` when provided. Must be a
  /// pure function of (payload, safe) that adds exactly one to `decodes`
  /// and at most one to each other field per call: core::MemorySystem
  /// decodes each stored word once, when it is written, and replays the
  /// result and its counter effect on every read.
  [[nodiscard]] virtual fixed::Sample decode(
      std::uint32_t payload, std::uint16_t safe,
      CodecCounters* counters = nullptr) const = 0;

  /// True when this technique's data path is the identity on the raw
  /// 16-bit sample: payload_bits() == 16 with encode_payload() a plain
  /// zero-extension, safe_bits() == 0, and decode() returning the payload
  /// unchanged with the decode count as its only counter effect. The
  /// block write path (core::MemorySystem::store_block) then moves
  /// samples directly from the caller's span into the data memory,
  /// skipping the encoder and the 32-bit staging copy; stored bits and
  /// stats stay bit-identical to the staged path. Only the baseline
  /// "none" technique qualifies.
  [[nodiscard]] virtual bool raw_data_path() const { return false; }

  /// Per-operation codec energy in pJ (logic domain, voltage-invariant:
  /// the codec must stay at a safe supply to function). Part of the EMT
  /// interface so user-registered techniques carry their own energy model.
  [[nodiscard]] virtual double encode_energy_pj() const { return 0.0; }
  [[nodiscard]] virtual double decode_energy_pj() const { return 0.0; }

  /// Block codec entry points — one virtual dispatch per *window* instead
  /// of per word. The base implementations loop over the scalar virtuals;
  /// the concrete EMTs override them with devirtualized inner loops.
  /// Results are bit-identical to the equivalent scalar loop: decode_block
  /// writes each word's sample to `out` and its outcome bits
  /// (kDecodeCorrected / kDecodeDetected, the counters decode() would
  /// have bumped) to `outcome`.
  ///
  /// `safe` may be empty when the technique stores no side bits
  /// (safe_bits() == 0); otherwise it must match `in`/`out` in length, as
  /// `outcome` always must. Throws std::invalid_argument on a span-length
  /// mismatch.
  virtual void encode_block(std::span<const fixed::Sample> in,
                            std::span<std::uint32_t> payload,
                            std::span<std::uint16_t> safe) const;
  virtual void decode_block(std::span<const std::uint32_t> payload,
                            std::span<const std::uint16_t> safe,
                            std::span<fixed::Sample> out,
                            std::span<std::uint8_t> outcome) const;

 protected:
  /// Shared argument validation for encode_block/decode_block overrides.
  void check_block_spans(std::size_t in_size, std::size_t payload_size,
                         std::size_t safe_size) const;
  void check_decode_spans(std::size_t out_size, std::size_t payload_size,
                          std::size_t safe_size,
                          std::size_t outcome_size) const;
};

}  // namespace ulpdream::core
