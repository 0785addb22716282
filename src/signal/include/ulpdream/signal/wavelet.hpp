#pragma once
// Discrete Wavelet Transform substrate. The paper's DWT application (and
// the delineator built on it) performs several scales of low-pass /
// high-pass filtering; commercial WBSN firmware typically uses short
// Daubechies filters in fixed point. We provide Haar, db2 and db4 banks,
// decimated multi-level analysis/synthesis, and the undecimated (a-trous)
// transform used by the delineator (translation invariance matters for
// fiducial-point localization).

#include <cstddef>
#include <string>
#include <vector>

#include "ulpdream/fixed/fixed_point.hpp"
#include "ulpdream/fixed/sample.hpp"
#include "ulpdream/signal/buffer.hpp"

namespace ulpdream::signal {

/// Q1.15 coefficient taps.
using TapVec = std::vector<fixed::Q15>;

/// Quantizes double taps to Q1.15, scaling them down only when the
/// largest magnitude reaches 1. Gains above 1 are fine: the kernels
/// accumulate in 64 bits and saturate on narrowing.
[[nodiscard]] TapVec quantize_taps(const std::vector<double>& taps);

/// Symmetric-extension index mapping: reflects i into [0, n).
[[nodiscard]] constexpr std::size_t reflect_index(long i, std::size_t n) {
  const long len = static_cast<long>(n);
  if (len <= 1) return 0;
  long idx = i;
  // Mirror without repeating the edge sample (whole-point symmetry),
  // applied iteratively for far out-of-range indices.
  while (idx < 0 || idx >= len) {
    if (idx < 0) idx = -idx;
    if (idx >= len) idx = 2 * (len - 1) - idx;
  }
  return static_cast<std::size_t>(idx);
}

enum class WaveletFamily { kHaar, kDb2, kDb4 };

/// Analysis/synthesis filter quadruple in double precision (orthogonal
/// banks: synthesis filters are time-reversed analysis filters).
struct WaveletBank {
  std::string name;
  std::vector<double> lo_d;  ///< analysis low-pass
  std::vector<double> hi_d;  ///< analysis high-pass
  std::vector<double> lo_r;  ///< synthesis low-pass
  std::vector<double> hi_r;  ///< synthesis high-pass
};

[[nodiscard]] const WaveletBank& wavelet_bank(WaveletFamily family);

/// Q1.15-quantized analysis pair for the fixed-point kernels.
struct FixedBank {
  TapVec lo;
  TapVec hi;
};
[[nodiscard]] FixedBank fixed_bank(WaveletFamily family);

/// One decimated analysis level: from n input samples produce n/2 approx
/// and n/2 detail coefficients (n must be even). Periodic extension.
/// Kernel scales by 1/2 overall (Q15 banks already embed 1/sqrt2 per tap
/// pair) so the fixed-point dynamic range never grows across levels.
///
/// Batched data path: the input (n samples) is copied once and charged
/// as the device reads it, window by window: window i reads the `taps`
/// words from 2i on, with one block read when it fits kMaxTaps and does
/// not wrap, and with a word get() per tap (index mod n) otherwise.
/// Output coefficients are staged and flushed in kWindowChunk blocks, so
/// the input must be a different buffer than approx/detail.
template <SampleBuffer In, SampleBuffer OutA, SampleBuffer OutD>
void dwt_level(const In& in, std::size_t n, const FixedBank& bank, OutA& approx,
               OutD& detail, std::size_t approx_off = 0,
               std::size_t detail_off = 0) {
  const std::size_t half = n / 2;
  if (half == 0) return;
  const std::size_t taps = bank.lo.size();
  constexpr std::size_t kMaxTaps = 16;  // db4 uses 8
  ReadPattern reads(n);
  for (std::size_t i = 0; i < half; ++i) {
    const std::size_t start = 2 * i;
    if (taps <= kMaxTaps && start + taps <= n) {
      reads.block(start, taps);
    } else {
      // Taps start, start + 1, ... mod n: whole laps over the input, then
      // the rest from `start` on, wrapping to 0 at most once.
      const std::size_t rest = taps % n;
      const std::size_t before_wrap = std::min(rest, n - start);
      reads.words(0, n, taps / n);
      reads.words(start, before_wrap);
      reads.words(0, rest - before_wrap);
    }
  }
  // x[t] = in[t mod n] for t < n + taps: every window is contiguous in x.
  fixed::SampleVec x(n + taps);
  in.read_charged(0, std::span<fixed::Sample>(x.data(), n), reads);
  for (std::size_t t = n; t < x.size(); ++t) x[t] = x[t - n];

  ChunkedWriter approx_out(approx, approx_off);
  ChunkedWriter detail_out(detail, detail_off);
  for (std::size_t i = 0; i < half; ++i) {
    const fixed::Sample* const window = x.data() + 2 * i;
    std::int64_t acc_lo = 0;
    std::int64_t acc_hi = 0;
    for (std::size_t k = 0; k < taps; ++k) {
      acc_lo += fixed::mul_q15(window[k], bank.lo[k]);
      acc_hi += fixed::mul_q15(window[k], bank.hi[k]);
    }
    approx_out.push(fixed::narrow_q15(acc_lo));
    detail_out.push(fixed::narrow_q15(acc_hi));
  }
  approx_out.flush();
  detail_out.flush();
}

/// Multi-level decimated DWT laid out in-place style:
/// out = [approx_L | detail_L | detail_{L-1} | ... | detail_1], total n.
/// `scratch` must hold at least n samples. Returns the coefficient layout
/// (offset, length) per band, approx first.
struct BandLayout {
  std::size_t offset;
  std::size_t length;
};

template <SampleBuffer In, SampleBuffer Out, SampleBuffer Scratch>
std::vector<BandLayout> dwt_multi(const In& in, std::size_t n,
                                  const FixedBank& bank, std::size_t levels,
                                  Out& out, Scratch& scratch) {
  // Copy input into scratch as the level-0 approximation. The level kernel
  // reads `scratch` with periodic extension, so it must never write into
  // its own input: each level writes approx+detail into `out`, then the
  // approx half is copied back to scratch for the next level. Copies run
  // on the block path (distinct buffers throughout).
  copy_window(in, 0, scratch, 0, n);
  std::vector<BandLayout> bands;
  std::size_t len = n;
  for (std::size_t lv = 0; lv < levels && len >= 2; ++lv) {
    const std::size_t half = len / 2;
    dwt_level(scratch, len, bank, out, out, /*approx_off=*/0,
              /*detail_off=*/half);
    copy_window(out, 0, scratch, 0, half);
    bands.push_back({half, half});
    len = half;
  }
  // out[0, len) already holds the final approximation from the last level
  // (or, with zero levels run, copy the input through).
  if (bands.empty()) {
    copy_window(in, 0, out, 0, n);
  }
  std::vector<BandLayout> layout;
  layout.push_back({0, len});  // approx
  for (auto it = bands.rbegin(); it != bands.rend(); ++it) layout.push_back(*it);
  return layout;
}

namespace detail {

/// The a-trous filtering core of swt_detail: out[i] is the sum over taps
/// k of taps_q15[k] * in[reflect(i + k * hole - center)]. The input is
/// copied once and charged as the device reads it, window by window: at
/// hole == 1 a window inside [0, n) is one block read (when it fits
/// kMaxTaps), and every other window reads each tap with a word get() at
/// its reflected index. Outputs are staged and flushed in kWindowChunk
/// blocks, so `in` and `out` must be distinct buffers.
template <SampleBuffer In, SampleBuffer Out>
void swt_filter(const In& in, std::size_t n, const TapVec& taps_q15,
                std::size_t scale, Out& out) {
  if (n == 0) return;
  const std::size_t hole = std::size_t{1} << (scale - 1);
  const std::size_t taps = taps_q15.size();
  const std::size_t center = (taps / 2) * hole;
  const std::size_t reach = taps == 0 ? 0 : (taps - 1) * hole;  // last tap
  constexpr std::size_t kMaxTaps = 16;
  // Windows [lo, hi) keep every tap inside [0, n); the others reflect.
  const std::size_t lo = std::min(center, n);
  const std::size_t hi =
      std::max(lo, n + center > reach ? n + center - reach : 0);
  const auto tap_index = [&](std::size_t i, std::size_t k) {
    return reflect_index(
        static_cast<long>(i + k * hole) - static_cast<long>(center), n);
  };
  ReadPattern reads(n);
  if (hole == 1 && taps <= kMaxTaps) {
    for (std::size_t i = lo; i < hi; ++i) reads.block(i - center, taps);
  } else if (hi > lo) {
    // Tap k of windows lo..hi-1 reads one contiguous run of words.
    for (std::size_t k = 0; k < taps; ++k) {
      reads.words(lo - center + k * hole, hi - lo);
    }
  }
  const auto border = [&](std::size_t first, std::size_t last) {
    for (std::size_t i = first; i < last; ++i) {
      for (std::size_t k = 0; k < taps; ++k) reads.words(tap_index(i, k), 1);
    }
  };
  border(0, lo);
  border(hi, n);
  // x[t] = in[reflect(t - center)] for t < n + reach: window i is the
  // taps x[i], x[i + hole], ... of x. The input lands at x[center...],
  // and the reflected ends are copied from there.
  fixed::SampleVec x(n + reach);
  fixed::Sample* const mid = x.data() + center;
  in.read_charged(0, std::span<fixed::Sample>(mid, n), reads);
  for (std::size_t t = 0; t < center; ++t) x[t] = mid[tap_index(t, 0)];
  for (std::size_t t = center + n; t < x.size(); ++t) {
    x[t] = mid[tap_index(t, 0)];
  }

  ChunkedWriter staged(out, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t acc = 0;
    for (std::size_t k = 0; k < taps; ++k) {
      acc += fixed::mul_q15(x[i + k * hole], taps_q15[k]);
    }
    staged.push(fixed::narrow_q15(acc));
  }
  staged.flush();
}

}  // namespace detail

/// Undecimated (a-trous) detail at a given dyadic scale: filters with holes
/// of 2^(scale-1). Used by the wavelet delineator; output has length n and
/// must be a distinct buffer from the input.
template <SampleBuffer In, SampleBuffer Out>
void swt_detail(const In& in, std::size_t n, const FixedBank& bank,
                std::size_t scale, Out& out) {
  detail::swt_filter(in, n, bank.hi, scale, out);
}

/// Double-precision decimated DWT (analysis) for the CS sparsity basis and
/// for golden tests of the fixed-point kernels. Returns n coefficients with
/// the same [approx | details...] layout.
[[nodiscard]] std::vector<double> dwt_multi_f64(const std::vector<double>& in,
                                                WaveletFamily family,
                                                std::size_t levels);

/// Double-precision inverse of dwt_multi_f64.
[[nodiscard]] std::vector<double> idwt_multi_f64(
    const std::vector<double>& coeffs, WaveletFamily family,
    std::size_t levels);

}  // namespace ulpdream::signal
