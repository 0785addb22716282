#pragma once
// Buffer abstraction shared by every DSP kernel. The paper's experiments
// route *all* application data (input, intermediate and output buffers)
// through the under-powered data memory; kernels therefore never touch raw
// arrays — they are templated on a SampleBuffer, which is either a plain
// in-core vector (tests, reference runs) or a faulty-memory-backed buffer
// (experiments). Every read and write on the latter is charged as the
// device makes it: through the EMT codec and fault-injection path, and
// counted for energy.

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "ulpdream/fixed/sample.hpp"

namespace ulpdream::signal {

/// The reads a kernel's per-window loop makes of one window of a buffer,
/// described instead of made: how often each word is read, and how many
/// of those reads were block calls and how many words those calls moved
/// (every other read is a word get()). A kernel copies the window once
/// with read_charged() and the buffer charges the described reads: a
/// faulty-memory buffer adds exactly the codec counters and access stats
/// the loop's own reads would have added, and an in-core buffer ignores
/// them. The per-word counts are a difference array of 32-bit counts, so
/// describing a run of words costs O(1) however long the run is; a word's
/// count must stay below 2^32.
class ReadPattern {
 public:
  /// A pattern over a window of `words` words that reads nothing yet.
  explicit ReadPattern(std::size_t words) : delta_(words + 1, 0) {}

  [[nodiscard]] std::size_t size() const noexcept { return delta_.size() - 1; }

  /// `times` block calls, each reading [first, first + len) once.
  void block(std::size_t first, std::size_t len, std::uint64_t times = 1) {
    words(first, len, times);
    block_calls_ += times;
    block_words_ += len * times;
  }

  /// `times` word reads of each word of [first, first + len).
  void words(std::size_t first, std::size_t len, std::uint64_t times = 1) {
    if (len > size() || first > size() - len) {
      throw std::out_of_range("ReadPattern: run outside the window");
    }
    if (times > std::numeric_limits<std::uint32_t>::max()) {
      throw std::out_of_range("ReadPattern: 2^32 or more reads of a word");
    }
    // Unsigned wrap-around: the prefix sums still come out exact.
    delta_[first] += static_cast<std::uint32_t>(times);
    delta_[first + len] -= static_cast<std::uint32_t>(times);
    reads_ += len * times;
  }

  /// Word j of the window is read delta()[0] + ... + delta()[j] times
  /// (mod 2^32).
  [[nodiscard]] std::span<const std::uint32_t> delta() const noexcept {
    return {delta_.data(), size()};
  }
  /// All reads, all block calls, and the words those block calls moved.
  [[nodiscard]] std::uint64_t reads() const noexcept { return reads_; }
  [[nodiscard]] std::uint64_t block_calls() const noexcept {
    return block_calls_;
  }
  [[nodiscard]] std::uint64_t block_words() const noexcept {
    return block_words_;
  }

 private:
  std::vector<std::uint32_t> delta_;
  std::uint64_t reads_ = 0;
  std::uint64_t block_calls_ = 0;
  std::uint64_t block_words_ = 0;
};

/// Word access (get/set) plus whole-window transfers: load() writes a
/// span into the buffer at an offset, store() reads a window back out,
/// and read_charged() reads a window once while charging the reads of a
/// ReadPattern over it. ProtectedBuffer moves a window with one codec
/// dispatch (the batched data path); kernels use it through
/// read_window/write_window/read_charged so plain VecBuffers and
/// faulty-memory buffers share one code path.
template <typename B>
concept SampleBuffer =
    requires(B& b, const B& cb, std::size_t i, fixed::Sample s,
             std::span<const fixed::Sample> src, std::span<fixed::Sample> dst,
             const ReadPattern& reads) {
      { cb.get(i) } -> std::convertible_to<fixed::Sample>;
      { b.set(i, s) };
      { cb.size() } -> std::convertible_to<std::size_t>;
      { b.load(i, src) };
      { cb.store(i, dst) };
      { cb.read_charged(i, dst, reads) };
    };

/// Plain in-core buffer: adapter over a SampleVec. Used for unit tests and
/// for golden-reference computation outside the memory simulator.
class VecBuffer {
 public:
  VecBuffer() = default;
  explicit VecBuffer(std::size_t n) : data_(n, 0) {}
  explicit VecBuffer(fixed::SampleVec data) : data_(std::move(data)) {}

  [[nodiscard]] fixed::Sample get(std::size_t i) const { return data_.at(i); }
  void set(std::size_t i, fixed::Sample s) { data_.at(i) = s; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  void load(std::size_t i, std::span<const fixed::Sample> src) {
    if (src.size() > data_.size() || i > data_.size() - src.size()) {
      throw std::out_of_range("VecBuffer::load");
    }
    std::copy(src.begin(), src.end(), data_.begin() + static_cast<long>(i));
  }
  void store(std::size_t i, std::span<fixed::Sample> dst) const {
    if (dst.size() > data_.size() || i > data_.size() - dst.size()) {
      throw std::out_of_range("VecBuffer::store");
    }
    std::copy_n(data_.begin() + static_cast<long>(i), dst.size(), dst.begin());
  }
  /// A plain copy: an in-core buffer has no device reads to charge.
  void read_charged(std::size_t i, std::span<fixed::Sample> dst,
                    const ReadPattern& reads) const {
    if (reads.size() != dst.size()) {
      throw std::invalid_argument("VecBuffer::read_charged: pattern size");
    }
    store(i, dst);
  }

 private:
  fixed::SampleVec data_;
};

static_assert(SampleBuffer<VecBuffer>);

/// Reads buf[offset, offset + dst.size()) into `dst` through the block
/// path: the same addresses are read once each, in ascending order.
template <SampleBuffer B>
void read_window(const B& buf, std::size_t offset,
                 std::span<fixed::Sample> dst) {
  buf.store(offset, dst);
}

/// Writes `src` into buf[offset, offset + src.size()) through the block
/// path.
template <SampleBuffer B>
void write_window(B& buf, std::size_t offset,
                  std::span<const fixed::Sample> src) {
  buf.load(offset, src);
}

/// Chunk size used when staging window transfers through the stack.
inline constexpr std::size_t kWindowChunk = 256;

/// Stack-staged sequential writer: push() samples destined for
/// buf[offset], buf[offset + 1], ...; full kWindowChunk stages are
/// flushed through write_window, and flush() drains the tail. Shared by
/// the kernels that produce one output per loop iteration, so the
/// chunk/tail bookkeeping lives in one place.
template <SampleBuffer B>
class ChunkedWriter {
 public:
  ChunkedWriter(B& buf, std::size_t offset) : buf_(&buf), next_(offset) {}

  void push(fixed::Sample s) {
    staged_[fill_++] = s;
    if (fill_ == kWindowChunk) flush();
  }

  void flush() {
    if (fill_ == 0) return;
    write_window(*buf_, next_, std::span<const fixed::Sample>(staged_, fill_));
    next_ += fill_;
    fill_ = 0;
  }

 private:
  B* buf_;
  std::size_t next_;
  std::size_t fill_ = 0;
  fixed::Sample staged_[kWindowChunk];
};

/// Copies src[src_off, src_off + n) into dst[dst_off, ...) through the
/// block path, staging kWindowChunk samples at a time. Source and
/// destination must be distinct buffers (the chunked copy reorders the
/// interleaving of reads and writes, which is only equivalent when no
/// read observes this copy's own writes).
template <SampleBuffer Src, SampleBuffer Dst>
void copy_window(const Src& src, std::size_t src_off, Dst& dst,
                 std::size_t dst_off, std::size_t n) {
  fixed::Sample staged[kWindowChunk];
  while (n > 0) {
    const std::size_t m = n < kWindowChunk ? n : kWindowChunk;
    read_window(src, src_off, std::span<fixed::Sample>(staged, m));
    write_window(dst, dst_off, std::span<const fixed::Sample>(staged, m));
    src_off += m;
    dst_off += m;
    n -= m;
  }
}

/// Copies a SampleVec into any SampleBuffer.
template <SampleBuffer B>
void load(B& buf, const fixed::SampleVec& src) {
  const std::size_t n = src.size() < buf.size() ? src.size() : buf.size();
  write_window(buf, 0, std::span<const fixed::Sample>(src.data(), n));
}

/// Reads a SampleBuffer range [0, n) back into a SampleVec.
template <SampleBuffer B>
[[nodiscard]] fixed::SampleVec store(const B& buf, std::size_t n) {
  fixed::SampleVec out(n);
  read_window(buf, 0, std::span<fixed::Sample>(out.data(), n));
  return out;
}

}  // namespace ulpdream::signal
