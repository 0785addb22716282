#include "ulpdream/core/dream.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "ulpdream/util/simd.hpp"

#if ULPDREAM_SIMD_X86
#include <immintrin.h>
#endif

namespace ulpdream::core {

Dream::Dream(int mask_id_bits) : mask_id_bits_(mask_id_bits) {
  if (mask_id_bits < 1 || mask_id_bits > 4) {
    throw std::invalid_argument("Dream: mask_id_bits must be in [1, 4]");
  }
  run_step_ = 16 >> mask_id_bits;  // 4 bits -> step 1 (exact runs)
}

std::string Dream::name() const {
  if (mask_id_bits_ == 4) return "dream";
  return "dream" + std::to_string(mask_id_bits_);
}

std::uint32_t Dream::encode_payload(fixed::Sample s) const {
  return static_cast<std::uint16_t>(s);  // data stored unmodified
}

int Dream::recorded_run(fixed::Sample s) const {
  const int run = fixed::sign_run_length(s);  // in [1, 16]
  // Quantize downward so the decoder never forces a bit that was not part
  // of the actual constant-MSB run.
  const int id = (run - 1) / run_step_;          // fits mask_id_bits_
  return id * run_step_ + 1;
}

std::uint16_t Dream::encode_safe(fixed::Sample s) const {
  const auto u = static_cast<std::uint16_t>(s);
  const std::uint16_t sign = (u >> 15) & 1u;
  const int run = fixed::sign_run_length(s);
  const auto id = static_cast<std::uint16_t>((run - 1) / run_step_);
  return static_cast<std::uint16_t>((id << 1) | sign);
}

std::uint16_t Dream::decode_word(std::uint16_t data, std::uint16_t safe,
                                 bool& corrected) const {
  const bool sign = (safe & 1u) != 0;
  const int id = static_cast<int>(safe >> 1);
  const int run = id * run_step_ + 1;  // recorded run length, in [1, 16]

  // Expand mask ID to a full mask covering the top `run` bits (the
  // hardware lookup table of Fig. 3).
  const std::uint16_t mask =
      static_cast<std::uint16_t>(~((1u << (16 - run)) - 1u) & 0xFFFFu);

  // AND/OR + 2:1 mux selected by the sign bit.
  std::uint16_t fixed_word =
      sign ? static_cast<std::uint16_t>(data | mask)
           : static_cast<std::uint16_t>(data & static_cast<std::uint16_t>(~mask));

  // "Set one bit" block: with exact run lengths, the bit right below the
  // run is by construction the inverted sign — restore it unconditionally.
  if (run_step_ == 1 && run < 16) {
    const std::uint16_t below = static_cast<std::uint16_t>(1u << (15 - run));
    fixed_word = sign ? static_cast<std::uint16_t>(fixed_word & ~below)
                      : static_cast<std::uint16_t>(fixed_word | below);
  }

  corrected = fixed_word != data;
  return fixed_word;
}

fixed::Sample Dream::decode(std::uint32_t payload, std::uint16_t safe,
                            CodecCounters* counters) const {
  bool corrected = false;
  const std::uint16_t fixed_word =
      decode_word(static_cast<std::uint16_t>(payload), safe, corrected);
  if (counters != nullptr) {
    ++counters->decodes;
    if (corrected) ++counters->corrected_words;
  }
  return static_cast<fixed::Sample>(fixed_word);
}

#if ULPDREAM_SIMD_X86

namespace {

// --- AVX2 kernels (16 words per iteration) ------------------------------

// 1 << s per 16-bit lane, s in [0, 15], without variable shifts (AVX2 has
// no 16-bit ones): a chain of conditional multiplies by 2^1, 2^2, 2^4, 2^8
// selected by the bits of s.
__attribute__((target("avx2"))) inline __m256i pow2_epu16_avx2(__m256i s) {
  __m256i pow = _mm256_set1_epi16(1);
  __m256i bit = _mm256_set1_epi16(1);
  const short muls[4] = {2, 4, 16, 256};
  for (int b = 0; b < 4; ++b) {
    const __m256i cond = _mm256_cmpeq_epi16(_mm256_and_si256(s, bit), bit);
    const __m256i scaled = _mm256_mullo_epi16(pow, _mm256_set1_epi16(muls[b]));
    pow = _mm256_blendv_epi8(pow, scaled, cond);
    bit = _mm256_slli_epi16(bit, 1);
  }
  return pow;
}

// floor(log2(v)) per 32-bit lane for v in [1, 2^16]: isolate the top set
// bit (then the int->float conversion is exact) and read the exponent.
__attribute__((target("avx2"))) inline __m256i msb_epu32_avx2(__m256i v) {
  v = _mm256_or_si256(v, _mm256_srli_epi32(v, 1));
  v = _mm256_or_si256(v, _mm256_srli_epi32(v, 2));
  v = _mm256_or_si256(v, _mm256_srli_epi32(v, 4));
  v = _mm256_or_si256(v, _mm256_srli_epi32(v, 8));
  v = _mm256_xor_si256(v, _mm256_srli_epi32(v, 1));
  const __m256 f = _mm256_cvtepi32_ps(v);
  return _mm256_sub_epi32(_mm256_srli_epi32(_mm256_castps_si256(f), 23),
                          _mm256_set1_epi32(127));
}

// Low 16 bits of sixteen consecutive u32 payload words, packed to u16
// lanes in word order.
__attribute__((target("avx2"))) inline __m256i
load_payload16_avx2(const std::uint32_t* p) {
  const __m256i a =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  const __m256i b =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 8));
  const __m256i packed =
      _mm256_packs_epi32(_mm256_srai_epi32(_mm256_slli_epi32(a, 16), 16),
                         _mm256_srai_epi32(_mm256_slli_epi32(b, 16), 16));
  return _mm256_permute4x64_epi64(packed, _MM_SHUFFLE(3, 1, 2, 0));
}

// The mask-force datapath of Fig. 3 on sixteen words at once. `exact` is
// the run_step == 1 "set one bit" stage; `below` = pow >> 1 is zero
// exactly when run == 16, which makes the run < 16 guard branchless.
__attribute__((target("avx2"))) inline __m256i
dream_force16_avx2(__m256i data, __m256i safe, __m256i vstep, bool exact) {
  const __m256i one = _mm256_set1_epi16(1);
  const __m256i sign =
      _mm256_sub_epi16(_mm256_setzero_si256(), _mm256_and_si256(safe, one));
  const __m256i id = _mm256_srli_epi16(safe, 1);
  // run = id*step + 1; the mask covering the top `run` bits is
  // -(1 << (16 - run)) mod 2^16, and 16 - run = 15 - id*step.
  const __m256i s =
      _mm256_sub_epi16(_mm256_set1_epi16(15), _mm256_mullo_epi16(id, vstep));
  const __m256i pow = pow2_epu16_avx2(s);
  const __m256i mask = _mm256_sub_epi16(_mm256_setzero_si256(), pow);
  const __m256i or_v = _mm256_or_si256(data, mask);
  const __m256i and_v = _mm256_andnot_si256(mask, data);
  __m256i fixed_v = _mm256_blendv_epi8(and_v, or_v, sign);
  if (exact) {
    const __m256i below = _mm256_srli_epi16(pow, 1);
    fixed_v = _mm256_blendv_epi8(_mm256_or_si256(fixed_v, below),
                                 _mm256_andnot_si256(below, fixed_v), sign);
  }
  return fixed_v;
}

// corrected[0..15] = (fixed != data) ? 1 : 0, one byte per word.
__attribute__((target("avx2"))) inline void
store_corrected16_avx2(std::uint8_t* corrected, __m256i fixed_v,
                       __m256i data) {
  const __m256i ne = _mm256_xor_si256(_mm256_cmpeq_epi16(fixed_v, data),
                                      _mm256_set1_epi16(-1));
  const __m256i flags =
      _mm256_packs_epi16(_mm256_and_si256(ne, _mm256_set1_epi16(1)),
                         _mm256_setzero_si256());
  _mm_storeu_si128(
      reinterpret_cast<__m128i*>(corrected),
      _mm256_castsi256_si128(
          _mm256_permute4x64_epi64(flags, _MM_SHUFFLE(3, 1, 2, 0))));
}

template <bool kFromU32>
__attribute__((target("avx2"))) std::size_t
dream_force_avx2(const void* src, const std::uint16_t* safe,
                 fixed::Sample* out, std::uint8_t* corrected, std::size_t n,
                 int run_step) {
  const __m256i vstep = _mm256_set1_epi16(static_cast<short>(run_step));
  const bool exact = run_step == 1;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256i data;
    if constexpr (kFromU32) {
      data = load_payload16_avx2(static_cast<const std::uint32_t*>(src) + i);
    } else {
      data = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
          static_cast<const std::uint16_t*>(src) + i));
    }
    const __m256i vsafe =
        safe != nullptr
            ? _mm256_loadu_si256(reinterpret_cast<const __m256i*>(safe + i))
            : _mm256_setzero_si256();
    const __m256i fixed_v = dream_force16_avx2(data, vsafe, vstep, exact);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), fixed_v);
    store_corrected16_avx2(corrected + i, fixed_v, data);
  }
  return i;
}

__attribute__((target("avx2"))) std::size_t
dream_encode_safe_avx2(const fixed::Sample* in, std::uint16_t* safe,
                       std::size_t n, int id_shift) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi16(1);
  const __m256i v15 = _mm256_set1_epi32(15);
  const __m128i shift = _mm_cvtsi32_si128(id_shift);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i u =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i));
    const __m256i sign = _mm256_srli_epi16(u, 15);
    // t = u ^ (u << 1) flags every adjacent-bit transition; the MSB run
    // ends at the highest set bit, so run - 1 = 15 - msb(t | 1).
    const __m256i t =
        _mm256_or_si256(_mm256_xor_si256(u, _mm256_slli_epi16(u, 1)), one);
    // unpacklo/hi and packs all operate per 128-bit lane, so the pack
    // reassembles the original word order.
    const __m256i id_lo = _mm256_srl_epi32(
        _mm256_sub_epi32(v15, msb_epu32_avx2(_mm256_unpacklo_epi16(t, zero))),
        shift);
    const __m256i id_hi = _mm256_srl_epi32(
        _mm256_sub_epi32(v15, msb_epu32_avx2(_mm256_unpackhi_epi16(t, zero))),
        shift);
    const __m256i id = _mm256_packs_epi32(id_lo, id_hi);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(safe + i),
                        _mm256_or_si256(_mm256_slli_epi16(id, 1), sign));
  }
  return i;
}

}  // namespace

#endif  // ULPDREAM_SIMD_X86

void Dream::encode_safe_block(const fixed::Sample* in, std::uint16_t* safe,
                              std::size_t n) const {
  std::size_t i = 0;
#if ULPDREAM_SIMD_X86
  if (util::simd::active_tier() >= util::simd::Tier::kAvx2) {
    i = dream_encode_safe_avx2(
        in, safe, n, std::countr_zero(static_cast<unsigned>(run_step_)));
  }
#endif
  for (; i < n; ++i) safe[i] = encode_safe(in[i]);
}

void Dream::force_block(const std::uint32_t* payload,
                        const std::uint16_t* safe, fixed::Sample* out,
                        std::uint8_t* corrected, std::size_t n) const {
  std::size_t i = 0;
#if ULPDREAM_SIMD_X86
  if (util::simd::active_tier() >= util::simd::Tier::kAvx2) {
    i = dream_force_avx2<true>(payload, safe, out, corrected, n, run_step_);
  }
#endif
  for (; i < n; ++i) {
    bool c = false;
    out[i] = static_cast<fixed::Sample>(
        decode_word(static_cast<std::uint16_t>(payload[i]),
                    safe != nullptr ? safe[i] : std::uint16_t{0}, c));
    corrected[i] = c ? 1 : 0;
  }
}

void Dream::force_block16(const std::uint16_t* data, const std::uint16_t* safe,
                          fixed::Sample* out, std::uint8_t* corrected,
                          std::size_t n) const {
  std::size_t i = 0;
#if ULPDREAM_SIMD_X86
  if (util::simd::active_tier() >= util::simd::Tier::kAvx2) {
    i = dream_force_avx2<false>(data, safe, out, corrected, n, run_step_);
  }
#endif
  for (; i < n; ++i) {
    bool c = false;
    out[i] = static_cast<fixed::Sample>(
        decode_word(data[i], safe != nullptr ? safe[i] : std::uint16_t{0}, c));
    corrected[i] = c ? 1 : 0;
  }
}

void Dream::encode_block(std::span<const fixed::Sample> in,
                         std::span<std::uint32_t> payload,
                         std::span<std::uint16_t> safe) const {
  check_block_spans(in.size(), payload.size(), safe.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    payload[i] = static_cast<std::uint16_t>(in[i]);
  }
  if (!safe.empty()) encode_safe_block(in.data(), safe.data(), safe.size());
}

void Dream::decode_block(std::span<const std::uint32_t> payload,
                         std::span<const std::uint16_t> safe,
                         std::span<fixed::Sample> out,
                         std::span<std::uint8_t> outcome) const {
  check_decode_spans(out.size(), payload.size(), safe.size(), outcome.size());
  static_assert(kDecodeCorrected == 1, "force_block flags are 0/1");
  force_block(payload.data(), safe.empty() ? nullptr : safe.data(),
              out.data(), outcome.data(), out.size());
}

}  // namespace ulpdream::core
