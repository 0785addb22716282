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
#include "ulpdream/signal/fir.hpp"

namespace ulpdream::signal {

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
/// Batched data path: each lifting step's tap window is contiguous except
/// at the periodic wrap, so interior windows are fetched with one block
/// read, and output coefficients are staged and flushed in kWindowChunk
/// blocks. The input must be a different buffer than approx/detail (the
/// staging reorders reads relative to writes); the access trace — which
/// addresses, how often — is unchanged.
template <SampleBuffer In, SampleBuffer OutA, SampleBuffer OutD>
void dwt_level(const In& in, std::size_t n, const FixedBank& bank, OutA& approx,
               OutD& detail, std::size_t approx_off = 0,
               std::size_t detail_off = 0) {
  const std::size_t half = n / 2;
  const std::size_t taps = bank.lo.size();
  constexpr std::size_t kMaxTaps = 16;  // db4 uses 8
  fixed::Sample window[kMaxTaps];
  ChunkedWriter approx_out(approx, approx_off);
  ChunkedWriter detail_out(detail, detail_off);
  for (std::size_t i = 0; i < half; ++i) {
    std::int64_t acc_lo = 0;
    std::int64_t acc_hi = 0;
    if (taps <= kMaxTaps && 2 * i + taps <= n) {
      read_window(in, 2 * i, std::span<fixed::Sample>(window, taps));
      for (std::size_t k = 0; k < taps; ++k) {
        acc_lo += fixed::mul_q15(window[k], bank.lo[k]);
        acc_hi += fixed::mul_q15(window[k], bank.hi[k]);
      }
    } else {
      for (std::size_t k = 0; k < taps; ++k) {
        const std::size_t src = (2 * i + k) % n;  // periodic extension
        const fixed::Sample s = in.get(src);
        acc_lo += fixed::mul_q15(s, bank.lo[k]);
        acc_hi += fixed::mul_q15(s, bank.hi[k]);
      }
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

/// The a-trous filtering core of swt_detail. Interior windows at
/// hole == 1 are contiguous and fetched with one block read; outputs are
/// staged and flushed in kWindowChunk blocks, so `in` and `out` must be
/// distinct buffers. Access trace matches the scalar loop.
template <SampleBuffer In, SampleBuffer Out>
void swt_filter(const In& in, std::size_t n, const TapVec& taps_q15,
                std::size_t scale, Out& out) {
  const std::size_t hole = std::size_t{1} << (scale - 1);
  const std::size_t taps = taps_q15.size();
  const long center = static_cast<long>((taps / 2) * hole);
  constexpr std::size_t kMaxTaps = 16;
  fixed::Sample window[kMaxTaps];
  ChunkedWriter staged(out, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::int64_t acc = 0;
    const long start = static_cast<long>(i) - center;
    if (hole == 1 && taps <= kMaxTaps && start >= 0 &&
        static_cast<std::size_t>(start) + taps <= n) {
      read_window(in, static_cast<std::size_t>(start),
                  std::span<fixed::Sample>(window, taps));
      for (std::size_t k = 0; k < taps; ++k) {
        acc += fixed::mul_q15(window[k], taps_q15[k]);
      }
    } else {
      for (std::size_t k = 0; k < taps; ++k) {
        const long src = static_cast<long>(i) +
                         static_cast<long>(k * hole) - center;
        acc += fixed::mul_q15(in.get(reflect_index(src, n)), taps_q15[k]);
      }
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
