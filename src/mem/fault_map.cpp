#include "ulpdream/mem/fault_map.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace ulpdream::mem {

namespace {
const WordFaults kCleanWord{};
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

  // Place faults at distinct cells. For the BER range we sweep the target
  // is a small fraction of the cell count, so rejection sampling on a hash
  // set terminates quickly. The RNG consumption order is load-bearing: it
  // must not depend on the storage layout, so placements accumulate in a
  // hash map and are sorted into the sparse arrays afterwards.
  std::unordered_set<std::uint64_t> placed;
  placed.reserve(static_cast<std::size_t>(fault_target) * 2);
  std::unordered_map<std::uint32_t, WordFaults> by_word;
  by_word.reserve(static_cast<std::size_t>(fault_target) * 2);
  while (placed.size() < fault_target) {
    const std::uint64_t cell = rng.bounded(cells);
    if (!placed.insert(cell).second) continue;
    const auto word = static_cast<std::uint32_t>(
        cell / static_cast<std::uint64_t>(bits_per_word));
    const auto bit = static_cast<int>(cell % static_cast<std::uint64_t>(bits_per_word));
    const std::uint32_t bitmask = 1u << bit;
    WordFaults& wf = by_word[word];
    wf.mask |= bitmask;
    if (rng.bernoulli(0.5)) {
      wf.value |= bitmask;
    }
  }

  map.index_.reserve(by_word.size());
  for (const auto& [word, wf] : by_word) map.index_.push_back(word);
  std::sort(map.index_.begin(), map.index_.end());
  map.faults_.reserve(by_word.size());
  for (const std::uint32_t word : map.index_) {
    map.faults_.push_back(by_word[word]);
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
