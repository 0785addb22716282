#pragma once
// MemorySystem + ProtectedBuffer: the glue between applications and the
// faulty memory. A MemorySystem owns the voltage-scaled data array (sized
// for the EMT's payload width) and, when the EMT needs one, the error-free
// side array. ProtectedBuffer exposes a SampleBuffer-conforming window of
// that memory — the data path the paper instruments in its extended
// VirtualSOC model: every set() runs the EMT encoder, and every get()
// returns what the fault-injection path plus the EMT decoder yield for
// the stored word, with the same codec counters and access stats.
//
// Decode-on-write: faults are permanent stuck-at cells and an attached
// map never changes, so a read's result depends only on the last write
// to that word. The MemorySystem therefore decodes each word once, when
// it is written, into a shadow of the data array (the sample plus one
// outcome byte), and a read copies from the shadow and replays the
// outcome into CodecCounters, the data and side AccessStats and
// mem.fault_patch_words. attach_faults() and set_scrambler() mark the
// whole shadow stale; a stale word is decoded again on its next read.
// get() and set() are inline: a word with nothing to replay reads
// straight from the shadow, and set() decodes its one word in place.
//
// Read once, charge many: since a re-read of a word not written in
// between returns the same sample and replays the same outcome, a kernel
// that re-reads a window need not copy it each time. read_charged()
// copies a window once and charges the reads of a signal::ReadPattern
// over it — each word's outcome times its read count, plus the block
// calls and words the pattern's block reads would have tallied — so
// every device read is still counted, exactly as if it had been made.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ulpdream/core/emt.hpp"
#include "ulpdream/mem/memory.hpp"
#include "ulpdream/signal/buffer.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace ulpdream::core {

class MemorySystem {
 public:
  /// `words`: capacity of the data array in 16-bit samples (default: the
  /// paper's full 32 kB / 16-bit geometry).
  ///
  /// Lifetime: the MemorySystem keeps a non-owning reference to `emt`,
  /// which must outlive it. In particular do NOT pass a dereferenced
  /// temporary (`MemorySystem sys(*make_emt(k))` dangles) — keep the
  /// unique_ptr alive alongside the system.
  explicit MemorySystem(const Emt& emt,
                        std::size_t words = mem::MemoryGeometry::kWords16);
  /// Adds this system's codec.<emt>.* and mem.fault_patch_words tallies
  /// to telemetry. Not copyable, so nothing is counted twice.
  ~MemorySystem();
  MemorySystem(const MemorySystem&) = delete;
  MemorySystem& operator=(const MemorySystem&) = delete;

  [[nodiscard]] const Emt& emt() const noexcept { return *emt_; }
  /// Read-only views: every write goes through the shadow's write path.
  [[nodiscard]] const mem::FaultyMemory& data() const noexcept {
    return data_;
  }
  [[nodiscard]] const mem::SafeMemory* safe() const noexcept {
    return safe_ ? &*safe_ : nullptr;
  }

  /// Forward to the data array (same validation and errors); words
  /// written before are decoded again on their next read.
  void attach_faults(const mem::FaultMap* map);
  void set_scrambler(std::uint64_t seed);

  [[nodiscard]] const CodecCounters& counters() const noexcept {
    return counters_;
  }

  void reset_stats();

  /// Batched data path: encodes and writes `src.size()` samples starting
  /// at data-array address `addr` (and the matching side words when the
  /// EMT keeps any), then decodes the written words into the shadow.
  /// Bit-identical — decoded values, CodecCounters and AccessStats — to
  /// the equivalent loop of word accesses, but pays one virtual codec
  /// dispatch and one bounds check per window chunk instead of per word.
  void store_block(std::size_t addr, std::span<const fixed::Sample> src);
  /// Reads `dst.size()` decoded words starting at `addr` from the shadow.
  void load_block(std::size_t addr, std::span<fixed::Sample> dst);
  /// Copies the same window as load_block(addr, dst), with the same range
  /// check and stale-word refresh, and adds what the reads of `reads`
  /// (a pattern over exactly that window) would add: each word's decodes,
  /// outcome counts, data and side reads and mem.fault_patch_words times
  /// its read count, and the pattern's block calls and words to the
  /// codec.<emt>.decode_* tally. Throws std::invalid_argument when the
  /// pattern's size is not dst.size().
  void read_charged(std::size_t addr, std::span<fixed::Sample> dst,
                    const signal::ReadPattern& reads);

  /// Bump allocator over the data array (word granularity). Throws
  /// std::bad_alloc when the 32 kB footprint would be exceeded — apps must
  /// fit the device memory, as on the real node.
  [[nodiscard]] std::size_t allocate(std::size_t words);
  void reset_allocator() noexcept { next_free_ = 0; }
  /// Allocation high-water mark: the most words allocated at once since
  /// construction, across reset_allocator() calls.
  [[nodiscard]] std::size_t peak_words_allocated() const noexcept {
    return peak_allocated_;
  }

  /// The block-call and word counts this system adds to codec.<emt>.*
  /// when destroyed, and the words read so far whose stored bits a
  /// FaultMap entry covered (its mem.fault_patch_words).
  struct Tally {
    std::uint64_t encode_calls = 0, encode_words = 0;
    std::uint64_t decode_calls = 0, decode_words = 0;
    std::uint64_t patched_words = 0;
  };
  [[nodiscard]] const Tally& tally() const noexcept { return tally_; }

  /// Per-EMT telemetry handles (names "codec.<emt>.*"), resolved once at
  /// construction. The call and word counts are tallied in tally_ and
  /// folded in once, by the destructor's add(); the *_block_ns latency
  /// histograms record per call but gate on
  /// telemetry::hot_timing_enabled() — clock reads are not free on the
  /// block path.
  struct CodecTelemetry {
    /// Adds `tally` to these counters and to mem.fault_patch_words.
    void add(const Tally& tally) const;

    util::telemetry::Counter encode_calls, encode_words;
    util::telemetry::Counter decode_calls, decode_words;
    util::telemetry::Histogram encode_block_ns, decode_block_ns;
  };
  static CodecTelemetry make_codec_telemetry(const std::string& emt_name);

 private:
  friend class ProtectedBuffer;

  /// store_block() / load_block() without the codec call tallies.
  void write_words(std::size_t addr, std::span<const fixed::Sample> src);
  void read_words(std::size_t addr, std::span<fixed::Sample> dst);
  /// The copy half of a read: range-checks [addr, addr + dst.size()),
  /// refreshes its stale words and copies it out of the shadow. Returns
  /// the OR of the window's outcome bytes (0: nothing to replay).
  std::uint8_t copy_from_shadow(std::size_t addr,
                                std::span<fixed::Sample> dst);
  /// The replay half: adds `reads` decodes and data/side reads of
  /// [addr, addr + n), and for each word whose outcome byte is set, its
  /// corrected/detected/patched counts times weight(i), which is called
  /// once per word in address order. `any` is copy_from_shadow()'s result.
  template <typename Weight>
  void replay(std::size_t addr, std::size_t n, std::uint8_t any,
              std::uint64_t reads, Weight weight);
  /// ProtectedBuffer::get(): a word whose outcome byte is 0 (fresh,
  /// unpatched, nothing corrected or detected) replays only its decode
  /// and its reads; every other word takes read_words().
  fixed::Sample read_word(std::size_t addr) {
    if (addr < shadow_.size() && outcome_[addr] == 0) {
      ++counters_.decodes;
      data_.count_reads(addr, 1, 1);
      if (safe_) safe_->count_reads(addr, 1, 1);
      return shadow_[addr];
    }
    fixed::Sample s = 0;
    read_words(addr, std::span<fixed::Sample>(&s, 1));
    return s;
  }
  /// ProtectedBuffer::set(): the scalar encoders, then Emt::decode of the
  /// stored word into the shadow.
  void write_word(std::size_t addr, fixed::Sample s);
  /// Decodes [addr, addr + n) from the stored bits into the shadow.
  void refresh(std::size_t addr, std::size_t n);
  void mark_all_stale();

  const Emt* emt_;
  mem::FaultyMemory data_;
  std::optional<mem::SafeMemory> safe_;
  /// The decoded shadow, one entry per data-array word: the sample a read
  /// returns and its outcome byte (the decoder's kDecodeCorrected /
  /// kDecodeDetected bits plus kPatched and kStale, protected_buffer.cpp).
  std::vector<fixed::Sample> shadow_;
  std::vector<std::uint8_t> outcome_;
  CodecCounters counters_;
  Tally tally_;
  CodecTelemetry telemetry_;
  std::size_t next_free_ = 0;
  std::size_t peak_allocated_ = 0;
};

/// SampleBuffer view over a MemorySystem allocation.
class ProtectedBuffer {
 public:
  /// Throws std::out_of_range unless the window [base, base + length)
  /// lies inside the system's data array.
  ProtectedBuffer(MemorySystem& system, std::size_t base, std::size_t length);

  /// Allocates a fresh buffer of `length` words from the system.
  static ProtectedBuffer allocate(MemorySystem& system, std::size_t length) {
    return {system, system.allocate(length), length};
  }

  /// Word accessors; throw std::out_of_range for i >= size().
  [[nodiscard]] fixed::Sample get(std::size_t i) const {
    if (i >= length_) throw std::out_of_range("ProtectedBuffer::get");
    return system_->read_word(base_ + i);
  }
  void set(std::size_t i, fixed::Sample s) {
    if (i >= length_) throw std::out_of_range("ProtectedBuffer::set");
    system_->write_word(base_ + i, s);
  }
  [[nodiscard]] std::size_t size() const noexcept { return length_; }

  /// Block window transfers (the batched data path). Naming follows the
  /// signal-buffer convention: load() moves samples *into* the device
  /// memory, store() reads a window back out. Both are loop-equivalent to
  /// set()/get() — same decoded bits, CodecCounters and AccessStats —
  /// and throw std::out_of_range when [i, i + span) exceeds the buffer.
  void load(std::size_t i, std::span<const fixed::Sample> src);
  void store(std::size_t i, std::span<fixed::Sample> dst) const;
  /// store(i, dst)'s copy, charged as the reads of `reads` over that
  /// window (MemorySystem::read_charged); same range check as store().
  void read_charged(std::size_t i, std::span<fixed::Sample> dst,
                    const signal::ReadPattern& reads) const;

  [[nodiscard]] std::size_t base() const noexcept { return base_; }

 private:
  MemorySystem* system_;
  std::size_t base_;
  std::size_t length_;
};

static_assert(signal::SampleBuffer<ProtectedBuffer>);

}  // namespace ulpdream::core
