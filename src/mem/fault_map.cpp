#include "ulpdream/mem/fault_map.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <utility>

namespace ulpdream::mem {

namespace {

const WordFaults kCleanWord{};

/// random()'s per-thread placement bitmaps, one bit per cell, and one
/// dirty bit per 64-cell slot. All zero whenever no call is running; a
/// call's fold zeroes every slot it touched.
struct GeneratorScratch {
  std::vector<std::uint64_t> placed;  ///< cell holds a fault
  std::vector<std::uint64_t> high;    ///< the fault is stuck at 1
  std::vector<std::uint64_t> dirty;   ///< slot has a placed cell
};
thread_local GeneratorScratch generator_scratch;

}  // namespace

FaultMap::FaultMap(std::size_t words, int bits_per_word)
    : bits_(bits_per_word), words_(words) {
  if (bits_per_word <= 0 || bits_per_word > 32) {
    throw std::invalid_argument("FaultMap: bits_per_word must be in [1, 32]");
  }
  if (words > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("FaultMap: word count exceeds index range");
  }
  rebuild_accelerators();
}

void FaultMap::rebuild_accelerators() {
  const std::size_t chunks = (words_ + kChunkWords - 1) / kChunkWords;
  coarse_.assign((chunks + 63) / 64 + 1, 0);  // +1: lookup never reads OOB
  chunk_start_.assign(chunks + 1, 0);
  std::size_t slot = 0;
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    chunk_start_[chunk] = static_cast<std::uint32_t>(slot);
    const std::size_t end_word = (chunk + 1) * kChunkWords;
    const std::size_t begin = slot;
    while (slot < index_.size() && index_[slot] < end_word) ++slot;
    if (slot != begin) coarse_[chunk >> 6] |= std::uint64_t{1} << (chunk & 63);
  }
  chunk_start_[chunks] = static_cast<std::uint32_t>(slot);
}

const WordFaults& FaultMap::at(std::size_t word) const {
  if (word >= words_) throw std::out_of_range("FaultMap::at: word index");
  const auto it = std::lower_bound(index_.begin(), index_.end(),
                                   static_cast<std::uint32_t>(word));
  if (it == index_.end() || *it != word) return kCleanWord;
  return faults_[static_cast<std::size_t>(it - index_.begin())];
}

WordFaults& FaultMap::edit(std::size_t word) {
  if (word >= words_) throw std::out_of_range("FaultMap::edit: word index");
  const auto it = std::lower_bound(index_.begin(), index_.end(),
                                   static_cast<std::uint32_t>(word));
  const auto slot = static_cast<std::size_t>(it - index_.begin());
  if (it == index_.end() || *it != word) {
    index_.insert(it, static_cast<std::uint32_t>(word));
    faults_.insert(faults_.begin() + static_cast<std::ptrdiff_t>(slot),
                   WordFaults{});
    const std::size_t chunk = word / kChunkWords;
    coarse_[chunk >> 6] |= std::uint64_t{1} << (chunk & 63);
    for (std::size_t c = chunk + 1; c < chunk_start_.size(); ++c) {
      ++chunk_start_[c];
    }
  }
  return faults_[slot];
}

FaultMap FaultMap::random(std::size_t words, int bits_per_word, double ber,
                          util::Xoshiro256& rng) {
  FaultMap map(words, bits_per_word);
  if (ber <= 0.0 || words == 0) return map;
  const std::uint64_t cells =
      static_cast<std::uint64_t>(words) * static_cast<std::uint64_t>(bits_per_word);
  std::uint64_t fault_target = rng.binomial(cells, ber);
  if (fault_target > cells) fault_target = cells;
  if (fault_target == 0) return map;

  // Every allocation comes first, so a throw leaves the scratch all zero:
  // the scratch grows to this geometry, and the map reserves one entry
  // per fault, capped at one per word.
  GeneratorScratch& scratch = generator_scratch;
  const std::size_t slots = static_cast<std::size_t>((cells + 63) / 64);
  const std::size_t dirty_words = (slots + 63) / 64;
  if (scratch.placed.size() < slots) scratch.placed.resize(slots);
  if (scratch.high.size() < slots) scratch.high.resize(slots);
  if (scratch.dirty.size() < dirty_words) scratch.dirty.resize(dirty_words);
  const std::size_t max_entries = static_cast<std::size_t>(
      std::min<std::uint64_t>(fault_target, words));
  map.index_.reserve(max_entries);
  map.faults_.reserve(max_entries);

  // Place faults at distinct cells by rejection, numbered word-major
  // (cell = word * bits_per_word + bit). The RNG draws are load-bearing:
  // one bounded() per attempt, then one bernoulli() per accepted cell for
  // its stuck value. The value bit is set without a branch, because the
  // fair coin defeats the branch predictor.
  std::uint64_t* const placed = scratch.placed.data();
  std::uint64_t* const high = scratch.high.data();
  std::uint64_t* const dirty = scratch.dirty.data();
  for (std::uint64_t faults = 0; faults < fault_target;) {
    const std::uint64_t cell = rng.bounded(cells);
    const std::size_t slot = static_cast<std::size_t>(cell >> 6);
    const std::uint64_t bit = std::uint64_t{1} << (cell & 63);
    if ((placed[slot] & bit) != 0) continue;
    placed[slot] |= bit;
    high[slot] |= bit & (0 - static_cast<std::uint64_t>(rng.bernoulli(0.5)));
    dirty[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    ++faults;
  }

  // Fold the touched slots in ascending order, so the faulty words come
  // out sorted, and zero each one behind the read. A word straddling two
  // slots continues the entry its first slot started.
  const auto bits = static_cast<unsigned>(bits_per_word);
  for (std::size_t d = 0; d < dirty_words; ++d) {
    for (std::uint64_t touched = std::exchange(dirty[d], 0); touched != 0;
         touched &= touched - 1) {
      const std::size_t slot = d * 64 + static_cast<std::size_t>(
                                            std::countr_zero(touched));
      std::uint64_t mask = std::exchange(placed[slot], 0);
      std::uint64_t value = std::exchange(high[slot], 0);
      const std::uint64_t first_cell = std::uint64_t{slot} * 64;
      auto word = static_cast<std::uint32_t>(first_cell / bits);
      auto shift = static_cast<unsigned>(first_cell % bits);
      for (; mask != 0; ++word, shift = 0) {
        // Slot bits [0, take) are cells [shift, bits) of `word`.
        const unsigned take = bits - shift;
        const std::uint64_t low = (std::uint64_t{1} << take) - 1;
        const auto word_mask =
            static_cast<std::uint32_t>((mask & low) << shift);
        const auto word_value =
            static_cast<std::uint32_t>((value & low) << shift);
        mask >>= take;
        value >>= take;
        if (word_mask == 0) continue;
        if (!map.index_.empty() && map.index_.back() == word) {
          map.faults_.back().mask |= word_mask;
          map.faults_.back().value |= word_value;
        } else {
          map.index_.push_back(word);
          map.faults_.push_back(WordFaults{word_mask, word_value});
        }
      }
    }
  }
  map.rebuild_accelerators();
  return map;
}

FaultMap FaultMap::stuck_bit(std::size_t words, int bits_per_word, int bit,
                             bool value) {
  if (bit < 0 || bit >= bits_per_word) {
    throw std::invalid_argument("FaultMap::stuck_bit: bit out of range");
  }
  FaultMap map(words, bits_per_word);
  const std::uint32_t bitmask = 1u << bit;
  map.index_.resize(words);
  for (std::size_t w = 0; w < words; ++w) {
    map.index_[w] = static_cast<std::uint32_t>(w);
  }
  map.faults_.assign(words, WordFaults{bitmask, value ? bitmask : 0u});
  map.rebuild_accelerators();
  return map;
}

std::size_t FaultMap::fault_count() const noexcept {
  std::size_t count = 0;
  for (const auto& wf : faults_) {
    count += static_cast<std::size_t>(std::popcount(wf.mask));
  }
  return count;
}

}  // namespace ulpdream::mem
