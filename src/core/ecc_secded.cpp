#include "ulpdream/core/ecc_secded.hpp"

#include <algorithm>
#include <bit>

#if ULPDREAM_SIMD_X86
#include <immintrin.h>
#endif

namespace ulpdream::core {

namespace {
// Payload layout: bit (p-1) of the 22-bit payload holds Hamming position p
// for p in 1..21; payload bit 21 holds the overall parity.
constexpr int kOverallBit = 21;

constexpr bool is_power_of_two(int v) { return v > 0 && (v & (v - 1)) == 0; }
}  // namespace

EccSecDed::EccSecDed() {
  int next = 0;
  for (int pos = 1; pos <= kHammingBits; ++pos) {
    if (is_power_of_two(pos)) continue;  // parity positions 1,2,4,8,16
    data_pos_[static_cast<std::size_t>(next++)] = pos;
  }

  // Parity-check planes: plane k covers every (1-based) position whose
  // bit k is set. The syndrome's bit k is the parity of payload & plane —
  // the XOR-of-positions form of the reference decoder, decomposed per
  // bit plane so decode costs 5 popcounts instead of a 21-iteration loop.
  for (int k = 0; k < 5; ++k) {
    std::uint32_t plane = 0;
    for (int pos = 1; pos <= kHammingBits; ++pos) {
      if ((pos >> k) & 1) plane |= 1u << (pos - 1);
    }
    syndrome_plane_[static_cast<std::size_t>(k)] = plane;
  }

  // Syndrome -> action LUT (64 entries: 5-bit syndrome x overall parity),
  // the case analysis of extended-Hamming decoding resolved once per
  // codec instead of per word.
  for (int overall = 0; overall < 2; ++overall) {
    for (int syndrome = 0; syndrome < 32; ++syndrome) {
      SyndromeEntry e;
      if (syndrome == 0 && overall == 0) {
        e.outcome = static_cast<std::uint8_t>(Outcome::kClean);
      } else if (overall != 0) {
        // Odd number of errors — assume one and correct it. syndrome == 0
        // means the flipped bit was the overall parity bit itself; a
        // syndrome pointing outside the codeword is >= 3 aliased errors.
        if (syndrome >= 1 && syndrome <= kHammingBits) {
          e.flip = 1u << (syndrome - 1);
          e.outcome = static_cast<std::uint8_t>(Outcome::kCorrected);
        } else if (syndrome == 0) {
          e.outcome = static_cast<std::uint8_t>(Outcome::kCorrected);
        } else {
          e.outcome =
              static_cast<std::uint8_t>(Outcome::kDetectedUncorrectable);
        }
      } else {
        // syndrome != 0, overall parity even: double error — detect only.
        e.outcome =
            static_cast<std::uint8_t>(Outcome::kDetectedUncorrectable);
      }
      syndrome_lut_[static_cast<std::size_t>(syndrome | (overall << 5))] = e;
    }
  }

  // Data extraction as two table lookups over payload bits [0, 11) and
  // [11, 21), and the inverse placement per data byte for encoding.
  for (std::uint32_t v = 0; v < extract_lo_.size(); ++v) {
    std::uint16_t data = 0;
    for (int i = 0; i < 16; ++i) {
      const int cb = data_pos_[static_cast<std::size_t>(i)] - 1;
      if (cb < 11 && ((v >> cb) & 1u)) {
        data |= static_cast<std::uint16_t>(1u << i);
      }
    }
    extract_lo_[v] = data;
  }
  for (std::uint32_t v = 0; v < extract_hi_.size(); ++v) {
    std::uint16_t data = 0;
    for (int i = 0; i < 16; ++i) {
      const int cb = data_pos_[static_cast<std::size_t>(i)] - 1;
      if (cb >= 11 && ((v >> (cb - 11)) & 1u)) {
        data |= static_cast<std::uint16_t>(1u << i);
      }
    }
    extract_hi_[v] = data;
  }
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    for (int i = 0; i < 8; ++i) {
      if ((b >> i) & 1u) {
        lo |= 1u << (data_pos_[static_cast<std::size_t>(i)] - 1);
        hi |= 1u << (data_pos_[static_cast<std::size_t>(i + 8)] - 1);
      }
    }
    place_lo_[b] = lo;
    place_hi_[b] = hi;
  }

  // Linearized per-byte tables (see the header): per-byte codewords via
  // the reference encoder, per-byte syndrome contributions via the
  // reference popcount planes. decode_ex()/encode_payload() then reduce to
  // XORs of these.
  for (std::uint32_t b = 0; b < 256; ++b) {
    enc_lo_[b] = compute_checked(place_lo_[b]);
    enc_hi_[b] = compute_checked(place_hi_[b]);
  }
  const auto syndrome6_of = [this](std::uint32_t p) {
    int syndrome = 0;
    for (int k = 0; k < 5; ++k) {
      syndrome |=
          (std::popcount(p & syndrome_plane_[static_cast<std::size_t>(k)]) & 1)
          << k;
    }
    const int overall =
        std::popcount(p & ((1u << (kOverallBit + 1)) - 1u)) & 1;
    return static_cast<std::uint8_t>(syndrome | (overall << 5));
  };
  for (std::uint32_t b = 0; b < 256; ++b) {
    synd_b0_[b] = syndrome6_of(b);
    synd_b1_[b] = syndrome6_of(b << 8);
  }
  for (std::uint32_t b = 0; b < 64; ++b) synd_b2_[b] = syndrome6_of(b << 16);

#if ULPDREAM_SIMD_X86
  for (std::size_t v = 0; v < 256; ++v) {
    synd32_b0_[v] = synd_b0_[v];
    synd32_b1_[v] = synd_b1_[v];
  }
  for (std::size_t v = 0; v < 64; ++v) {
    synd32_b2_[v] = synd_b2_[v];
    action32_[v] = syndrome_lut_[v].flip |
                   (static_cast<std::uint32_t>(syndrome_lut_[v].outcome) << 24);
  }
  for (std::size_t v = 0; v < extract32_lo_.size(); ++v) {
    extract32_lo_[v] = extract_lo_[v];
  }
  for (std::size_t v = 0; v < extract32_hi_.size(); ++v) {
    extract32_hi_[v] = extract_hi_[v];
  }
#endif
}

std::uint32_t EccSecDed::compute_checked(std::uint32_t with_data) const {
  std::uint32_t code = with_data;
  // Each parity bit at position 2^k covers its plane minus itself.
  // Previously-set parity positions are powers of two and never fall in a
  // later plane, so accumulating into `code` matches the reference order.
  for (int k = 0; k < 5; ++k) {
    const std::uint32_t ppos_bit = 1u << ((1 << k) - 1);
    if (std::popcount(code & (syndrome_plane_[static_cast<std::size_t>(k)] &
                              ~ppos_bit)) &
        1) {
      code |= ppos_bit;
    }
  }
  // Overall parity across the 21 Hamming bits (even total parity over 22).
  const int overall = std::popcount(code & ((1u << kHammingBits) - 1u)) & 1;
  if (overall != 0) code |= 1u << kOverallBit;
  return code;
}

std::uint32_t EccSecDed::encode_payload(fixed::Sample s) const {
  const auto u = static_cast<std::uint16_t>(s);
  return enc_lo_[u & 0xFFu] ^ enc_hi_[u >> 8];
}

fixed::Sample EccSecDed::extract_data(std::uint32_t codeword) const {
  return static_cast<fixed::Sample>(static_cast<std::uint16_t>(
      extract_lo_[codeword & 0x7FFu] | extract_hi_[(codeword >> 11) & 0x3FFu]));
}

fixed::Sample EccSecDed::decode_ex(std::uint32_t payload,
                                   Outcome& outcome) const {
  // Bits above the 22-bit codeword never influenced the planes or the
  // extraction; masking first lets the byte split cover the whole word.
  const std::uint32_t p = payload & ((1u << (kOverallBit + 1)) - 1u);
  const auto s6 = static_cast<std::size_t>(
      synd_b0_[p & 0xFFu] ^ synd_b1_[(p >> 8) & 0xFFu] ^ synd_b2_[p >> 16]);
  const SyndromeEntry& e = syndrome_lut_[s6];
  outcome = static_cast<Outcome>(e.outcome);
  return extract_data(p ^ e.flip);
}

fixed::Sample EccSecDed::decode(std::uint32_t payload, std::uint16_t /*safe*/,
                                CodecCounters* counters) const {
  Outcome outcome{};
  const fixed::Sample s = decode_ex(payload, outcome);
  if (counters != nullptr) {
    ++counters->decodes;
    if (outcome == Outcome::kCorrected) ++counters->corrected_words;
    if (outcome == Outcome::kDetectedUncorrectable) {
      ++counters->detected_uncorrectable;
    }
  }
  return s;
}

#if ULPDREAM_SIMD_X86

__attribute__((target("avx2"))) std::size_t EccSecDed::encode_avx2(
    const fixed::Sample* in, std::uint32_t* payload, std::size_t n) const {
  const auto* enc_lo = reinterpret_cast<const int*>(enc_lo_.data());
  const auto* enc_hi = reinterpret_cast<const int*>(enc_hi_.data());
  const __m256i m8 = _mm256_set1_epi32(0xFF);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i u = _mm256_cvtepu16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i)));
    const __m256i code = _mm256_xor_si256(
        _mm256_i32gather_epi32(enc_lo, _mm256_and_si256(u, m8), 4),
        _mm256_i32gather_epi32(enc_hi, _mm256_srli_epi32(u, 8), 4));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(payload + i), code);
  }
  return i;
}

__attribute__((target("avx2"))) std::size_t EccSecDed::decode_avx2(
    const std::uint32_t* payload, fixed::Sample* out, std::uint8_t* outcome,
    std::size_t n) const {
  const auto* b0 = reinterpret_cast<const int*>(synd32_b0_.data());
  const auto* b1 = reinterpret_cast<const int*>(synd32_b1_.data());
  const auto* b2 = reinterpret_cast<const int*>(synd32_b2_.data());
  const auto* action = reinterpret_cast<const int*>(action32_.data());
  const auto* xlo = reinterpret_cast<const int*>(extract32_lo_.data());
  const auto* xhi = reinterpret_cast<const int*>(extract32_hi_.data());
  const __m256i m22 = _mm256_set1_epi32((1 << (kOverallBit + 1)) - 1);
  const __m256i m8 = _mm256_set1_epi32(0xFF);
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i p = _mm256_and_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(payload + i)),
        m22);
    __m256i s6 = _mm256_xor_si256(
        _mm256_i32gather_epi32(b0, _mm256_and_si256(p, m8), 4),
        _mm256_i32gather_epi32(
            b1, _mm256_and_si256(_mm256_srli_epi32(p, 8), m8), 4));
    s6 = _mm256_xor_si256(
        s6, _mm256_i32gather_epi32(b2, _mm256_srli_epi32(p, 16), 4));
    const __m256i act = _mm256_i32gather_epi32(action, s6, 4);
    const __m256i flip = _mm256_and_si256(act, _mm256_set1_epi32(0x00FFFFFF));
    const __m256i oc = _mm256_srli_epi32(act, 24);
    const __m256i c = _mm256_xor_si256(p, flip);
    const __m256i data = _mm256_xor_si256(
        _mm256_i32gather_epi32(
            xlo, _mm256_and_si256(c, _mm256_set1_epi32(0x7FF)), 4),
        _mm256_i32gather_epi32(
            xhi,
            _mm256_and_si256(_mm256_srli_epi32(c, 11),
                             _mm256_set1_epi32(0x3FF)),
            4));
    // u32 lanes (values <= 0xFFFF resp. <= 2) packed down to u16 / u8.
    const __m256i d16 = _mm256_permute4x64_epi64(
        _mm256_packus_epi32(data, zero), _MM_SHUFFLE(3, 1, 2, 0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm256_castsi256_si128(d16));
    const __m256i o16 = _mm256_permute4x64_epi64(
        _mm256_packus_epi32(oc, zero), _MM_SHUFFLE(3, 1, 2, 0));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(outcome + i),
                     _mm_packus_epi16(_mm256_castsi256_si128(o16),
                                      _mm_setzero_si128()));
  }
  return i;
}

#endif  // ULPDREAM_SIMD_X86

void EccSecDed::encode_block_raw(const fixed::Sample* in,
                                 std::uint32_t* payload, std::size_t n) const {
  std::size_t i = 0;
#if ULPDREAM_SIMD_X86
  if (util::simd::active_tier() >= util::simd::Tier::kAvx2) {
    i = encode_avx2(in, payload, n);
  }
#endif
  for (; i < n; ++i) payload[i] = encode_payload(in[i]);
}

void EccSecDed::decode_block_raw(const std::uint32_t* payload,
                                 fixed::Sample* out, std::uint8_t* outcome,
                                 std::size_t n) const {
  std::size_t i = 0;
#if ULPDREAM_SIMD_X86
  if (util::simd::active_tier() >= util::simd::Tier::kAvx2) {
    i = decode_avx2(payload, out, outcome, n);
  }
#endif
  for (; i < n; ++i) {
    Outcome oc{};
    out[i] = decode_ex(payload[i], oc);
    outcome[i] = static_cast<std::uint8_t>(oc);
  }
}

void EccSecDed::encode_block(std::span<const fixed::Sample> in,
                             std::span<std::uint32_t> payload,
                             std::span<std::uint16_t> safe) const {
  check_block_spans(in.size(), payload.size(), safe.size());
  if (!in.empty()) encode_block_raw(in.data(), payload.data(), in.size());
  for (std::size_t i = 0; i < safe.size(); ++i) safe[i] = 0;
}

void EccSecDed::decode_block(std::span<const std::uint32_t> payload,
                             std::span<const std::uint16_t> safe,
                             std::span<fixed::Sample> out,
                             std::span<std::uint8_t> outcome) const {
  check_decode_spans(out.size(), payload.size(), safe.size(), outcome.size());
  static_assert(static_cast<std::uint8_t>(Outcome::kClean) == 0 &&
                static_cast<std::uint8_t>(Outcome::kCorrected) ==
                    kDecodeCorrected &&
                static_cast<std::uint8_t>(Outcome::kDetectedUncorrectable) ==
                    kDecodeDetected);
  decode_block_raw(payload.data(), out.data(), outcome.data(), out.size());
}

}  // namespace ulpdream::core
