#pragma once
// Permanent (stuck-at) fault maps. A fault map assigns each word a set of
// stuck bit positions and the value each is stuck at; the memory model
// applies them to the stored bits (equivalent to cells ignoring writes).
//
// Two generators mirror the paper's two experiments:
//  - random(): i.i.d. cell faults at a given BER — one fresh map per
//    Monte-Carlo run (Sec. V: "a different random fault-location map for
//    every run", justified by logical/physical address randomization);
//  - stuck_bit(): the deterministic Fig. 2 characterization pattern — one
//    chosen data-bit position stuck at 0 or 1 in *every* word.
//
// Storage is sparse: at the BERs the paper sweeps (>= ~0.7 V) well over
// 99% of words carry no fault, so the map keeps only the faulty words — a
// sorted word-index array with a parallel WordFaults array — plus one
// small accelerator: per-chunk slot offsets (one per kChunkWords-word
// chunk). They locate the entries of any window of words in O(1), so the
// memory's block read copies the window and then patches it in one
// ascending pass over those entries (entries()), and a one-word lookup()
// rejects a clean chunk by comparing two offsets and scans at most one
// chunk's entries. Map memory therefore scales with the fault count, not
// the geometry. Only random()'s placement scratch scales with the
// geometry: one bit per cell, twice, kept per thread and reused.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ulpdream/util/rng.hpp"

namespace ulpdream::mem {

/// Per-word stuck-at description: bit i is stuck iff mask bit i is set,
/// and then reads as the corresponding bit of `value`.
struct WordFaults {
  std::uint32_t mask = 0;
  std::uint32_t value = 0;

  /// Applies the faults to stored bits.
  [[nodiscard]] constexpr std::uint32_t apply(std::uint32_t stored) const {
    return (stored & ~mask) | (value & mask);
  }
};

class FaultMap {
 public:
  /// Words covered by one chunk's slot offset.
  static constexpr std::size_t kChunkWords = 64;

  /// The entries of a window of words, ascending by word: words[k]
  /// carries faults[k].
  struct EntryRange {
    std::span<const std::uint32_t> words;
    std::span<const WordFaults> faults;
  };

  FaultMap() = default;
  FaultMap(std::size_t words, int bits_per_word);

  /// Monte-Carlo map: each of the words*bits cells is independently stuck
  /// with probability `ber` (sampled via a binomial draw of the total
  /// fault count followed by uniform placement, which is exact and much
  /// faster than per-cell Bernoulli at our sizes). Stuck values are
  /// fair-coin 0/1. The map is a pure function of the arguments and the
  /// RNG state, and so is the number of draws it takes.
  ///
  /// Faults are placed on the calling thread's scratch bitmaps, which
  /// grow to the largest geometry the thread has drawn and are reused:
  /// 2 x words*bits/8 bytes per thread (90 KB at the paper's 16384 x 22),
  /// plus one bit per 64 cells. A call that does not grow them allocates
  /// only the map's own arrays.
  [[nodiscard]] static FaultMap random(std::size_t words, int bits_per_word,
                                       double ber, util::Xoshiro256& rng);

  /// Fig. 2 pattern: `bit` stuck at `value` in every word.
  [[nodiscard]] static FaultMap stuck_bit(std::size_t words,
                                          int bits_per_word, int bit,
                                          bool value);

  [[nodiscard]] std::size_t words() const noexcept { return words_; }
  [[nodiscard]] int bits_per_word() const noexcept { return bits_; }

  /// Reference lookup path: bounds-checked plain binary search over the
  /// sparse index (deliberately independent of the chunk offsets so the
  /// paths can be differentially tested). Clean words return a
  /// shared all-zero WordFaults. Never inserts — on a non-const map an
  /// `at()` call is still a pure read, so the block read path cannot grow
  /// the map behind the reader's back.
  [[nodiscard]] const WordFaults& at(std::size_t word) const;
  /// Mutation path, kept separate from at() so read-only lookups can never
  /// allocate: inserts a (clean) entry for `word` on demand.
  [[nodiscard]] WordFaults& edit(std::size_t word);

  /// One-word lookup, for reads that do not visit words in ascending
  /// order (the scrambled block read, the word accessors): a clean chunk
  /// (equal offsets, the overwhelmingly common case) is rejected at once,
  /// else a bounded search of the word's chunk. Returns nullptr for clean
  /// words.
  [[nodiscard]] const WordFaults* lookup(std::size_t word) const noexcept {
    if (word >= words_) return nullptr;
    const std::size_t chunk = word / kChunkWords;
    const std::uint32_t* const lo = index_.data() + chunk_start_[chunk];
    const std::uint32_t* const hi = index_.data() + chunk_start_[chunk + 1];
    if (lo == hi) return nullptr;
    const std::uint32_t* const it =
        std::lower_bound(lo, hi, static_cast<std::uint32_t>(word));
    if (it == hi || *it != word) return nullptr;
    return &faults_[static_cast<std::size_t>(it - index_.data())];
  }

  /// The entries of the words in [first, first + n) that lie below
  /// words(): exactly the words of that window lookup() finds, in
  /// ascending order, for reads that patch a window in one pass. The
  /// chunk offsets locate them; only the window's first and last chunks
  /// are searched for its edges.
  [[nodiscard]] EntryRange entries(std::size_t first,
                                   std::size_t n) const noexcept;

  /// Number of words holding at least one entry (faulty or inserted).
  [[nodiscard]] std::size_t entry_count() const noexcept {
    return index_.size();
  }

  /// True when no word below `words` holds an entry: a memory that only
  /// touches words [0, words) reads exactly what it would without this
  /// map. O(1) on the sorted index. Entries edit() inserted without
  /// stuck cells count as faulty, so the answer is conservative, never
  /// wrong.
  [[nodiscard]] bool clean_below(std::size_t words) const noexcept {
    return index_.empty() || index_.front() >= words;
  }

  /// Total number of stuck cells in the map.
  [[nodiscard]] std::size_t fault_count() const noexcept;

 private:
  /// Recomputes chunk_start_ from the sorted index_.
  void rebuild_chunk_start();

  int bits_ = 0;
  std::size_t words_ = 0;
  std::vector<std::uint32_t> index_;      ///< sorted faulty-word indices
  std::vector<WordFaults> faults_;        ///< parallel to index_
  std::vector<std::uint32_t> chunk_start_;  ///< slot range per chunk, +1 end
};

}  // namespace ulpdream::mem
