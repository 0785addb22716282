#pragma once
// 1-D grayscale morphology with flat structuring elements — the substrate
// of the paper's Morphological Filtering application (baseline-wander and
// impulse-noise removal on raw ECG, per Sec. II-4). All kernels are
// templated on SampleBuffer so the experiment versions run through the
// faulty memory. Border policy: clamp to edge (standard for morphology).

#include <algorithm>
#include <cstddef>

#include "ulpdream/fixed/sample.hpp"
#include "ulpdream/signal/buffer.hpp"

namespace ulpdream::signal {

namespace detail {

/// Shared min/max filter core: out[i] is the min (max) of in over the
/// window [i - half, i + half], clamped to [0, n). The input is copied
/// once and charged as the device reads it, window by window: a window
/// inside [0, n) that fits kWindowChunk is one block read, and every
/// other window reads each of its 2 * half + 1 taps with a word get() at
/// its clamped index. The filter itself is van Herk / Gil-Werman on the
/// clamped extension e[t] = in[clamp(t - half)], exact and O(1) per
/// sample: cut e into blocks of the window's width, run the op forward
/// from each block start (g) and backward from each block end (h); a
/// window then covers one block's tail and the next block's head, so
/// out[i] = op(h[i], g[i + width - 1]). Outputs are staged and flushed in
/// kWindowChunk blocks, so `in` and `out` must be distinct buffers.
template <bool kMax, SampleBuffer In, SampleBuffer Out>
void minmax_filter(const In& in, Out& out, std::size_t half, std::size_t n) {
  if (n == 0) return;
  const std::size_t width = 2 * half + 1;
  ReadPattern reads(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (width <= kWindowChunk && i >= half && i + half < n) {
      reads.block(i - half, width);
    } else {
      // The in-range taps once each; the overhang clamps to an edge word.
      const std::size_t lo = i >= half ? i - half : 0;
      const std::size_t hi = std::min(i + half, n - 1);
      reads.words(lo, hi - lo + 1);
      if (i < half) reads.words(0, 1, half - i);
      if (i + half > n - 1) reads.words(n - 1, 1, i + half - (n - 1));
    }
  }
  const std::size_t m = n + 2 * half;
  fixed::SampleVec e(m);
  in.read_charged(0, std::span<fixed::Sample>(e.data() + half, n), reads);
  std::fill(e.begin(), e.begin() + static_cast<long>(half), e[half]);
  std::fill(e.begin() + static_cast<long>(half + n), e.end(), e[half + n - 1]);

  const auto op = [](fixed::Sample a, fixed::Sample b) {
    return kMax ? std::max(a, b) : std::min(a, b);
  };
  fixed::SampleVec g(m);
  fixed::SampleVec h(m);
  for (std::size_t b = 0; b < m; b += width) {
    const std::size_t end = std::min(b + width, m);
    g[b] = e[b];
    for (std::size_t t = b + 1; t < end; ++t) g[t] = op(g[t - 1], e[t]);
    h[end - 1] = e[end - 1];
    for (std::size_t t = end - 1; t > b; --t) h[t - 1] = op(h[t], e[t - 1]);
  }
  ChunkedWriter staged(out, 0);
  for (std::size_t i = 0; i < n; ++i) staged.push(op(h[i], g[i + width - 1]));
  staged.flush();
}
}  // namespace detail

/// Erosion: out[i] = min over the window of half-width `half`. `out` must
/// be a distinct buffer from `in`.
template <SampleBuffer In, SampleBuffer Out>
void erode(const In& in, Out& out, std::size_t half, std::size_t n) {
  detail::minmax_filter<false>(in, out, half, n);
}

/// Dilation: out[i] = max over the window. `out` must be distinct from
/// `in`.
template <SampleBuffer In, SampleBuffer Out>
void dilate(const In& in, Out& out, std::size_t half, std::size_t n) {
  detail::minmax_filter<true>(in, out, half, n);
}

/// Opening = erosion then dilation (removes positive impulses).
template <SampleBuffer In, SampleBuffer Tmp, SampleBuffer Out>
void open(const In& in, Tmp& tmp, Out& out, std::size_t half, std::size_t n) {
  erode(in, tmp, half, n);
  dilate(tmp, out, half, n);
}

/// Closing = dilation then erosion (removes negative impulses).
template <SampleBuffer In, SampleBuffer Tmp, SampleBuffer Out>
void close(const In& in, Tmp& tmp, Out& out, std::size_t half, std::size_t n) {
  dilate(in, tmp, half, n);
  erode(tmp, out, half, n);
}

}  // namespace ulpdream::signal
