#include "ulpdream/mem/memory.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "ulpdream/util/rng.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace ulpdream::mem {

namespace {
/// Words whose stored bits were rewritten by a FaultMap entry on read.
/// Block paths tally locally and flush once per call; the scalar read()
/// adds directly (it only pays when a fault actually applied).
const util::telemetry::Counter& fault_patch_counter() {
  static const util::telemetry::Counter counter("mem.fault_patch_words");
  return counter;
}
}  // namespace

void detail::throw_range_error(const char* what) {
  throw std::out_of_range(std::string(what) + ": range");
}

FaultyMemory::FaultyMemory(std::size_t words, int width_bits)
    : width_(width_bits), store_(words, 0) {
  if (width_bits <= 0 || width_bits > 32) {
    throw std::invalid_argument("FaultyMemory: width must be in [1, 32]");
  }
  width_mask_ = width_bits == 32 ? 0xFFFFFFFFu : ((1u << width_bits) - 1u);
}

void FaultyMemory::check_covers(const FaultMap& map, std::size_t words,
                                int width_bits) {
  if (map.words() < words) {
    throw std::invalid_argument(
        "FaultyMemory: fault map covers " + std::to_string(map.words()) +
        " words, memory has " + std::to_string(words));
  }
  if (map.bits_per_word() < width_bits) {
    throw std::invalid_argument(
        "FaultyMemory: fault map is " + std::to_string(map.bits_per_word()) +
        " bits/word, memory needs " + std::to_string(width_bits));
  }
}

void FaultyMemory::attach_faults(const FaultMap* map) {
  if (map != nullptr) check_covers(*map, store_.size(), width_);
  faults_ = map;
}

void FaultyMemory::set_scrambler(std::uint64_t seed) {
  const std::uint64_t words = store_.size();
  if (seed == 0 || words == 0) {
    scramble_mul_ = 1;
    scramble_add_ = 0;
    return;
  }
  // Affine permutation over the word index space, with an additive offset
  // so the identity row 0 moves too. Reducing both terms mod words() and
  // stepping the multiplier to the next value coprime to it makes the map
  // a bijection on every geometry; on power-of-two sizes the odd draw is
  // already coprime and the reduction changes no address.
  util::SplitMix64 sm(seed);
  std::uint64_t mul = (sm.next() | 1u) % words;
  while (std::gcd(mul, words) != 1) mul = (mul + 1) % words;
  scramble_mul_ = mul;
  scramble_add_ = sm.next() % words;
}

namespace {

constexpr bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// (x * mul + add) mod n without overflow, for x, mul, add < n.
std::uint64_t affine_mod(std::uint64_t x, std::uint64_t mul, std::uint64_t add,
                         std::uint64_t n) {
  if (n <= (std::uint64_t{1} << 32)) {  // the product fits 64 bits
    const std::uint64_t v = x * mul + add;
    return is_pow2(n) ? v & (n - 1) : v % n;
  }
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(x) * mul + add) % n);
}

/// Next physical row of a scrambled run: logical + 1 maps to
/// (phys + mul) mod n, with phys, mul < n.
inline std::uint64_t next_row(std::uint64_t phys, std::uint64_t mul,
                              std::uint64_t n) {
  phys += mul;
  return phys >= n ? phys - n : phys;
}

}  // namespace

std::size_t FaultyMemory::physical(std::size_t logical) const {
  if (logical >= store_.size()) {
    throw std::out_of_range("FaultyMemory: address " +
                            std::to_string(logical) + " of " +
                            std::to_string(store_.size()));
  }
  if (!scrambled()) return logical;
  return static_cast<std::size_t>(
      affine_mod(logical, scramble_mul_, scramble_add_, store_.size()));
}

void FaultyMemory::write(std::size_t addr, std::uint32_t bits) {
  store_[physical(addr)] = bits & width_mask_;
  ++stats_.writes;
}

std::uint32_t FaultyMemory::peek_word(std::size_t addr, bool& patched) const {
  const std::size_t phys = physical(addr);
  std::uint32_t bits = store_[phys];
  patched = false;
  if (faults_ != nullptr) {
    if (const WordFaults* f = faults_->lookup(phys)) {
      bits = f->apply(bits);
      patched = true;
    }
  }
  return bits & width_mask_;
}

std::uint32_t FaultyMemory::read(std::size_t addr) const {
  bool patched = false;
  const std::uint32_t bits = peek_word(addr, patched);
  if (patched) fault_patch_counter().add();
  ++stats_.reads;
  return bits;
}

// The block loops hoist the per-word costs of the scalar accessors — the
// cross-TU call, the bounds check and the 64-bit division behind the
// affine scrambler (consecutive logical words step their row by the
// multiplier, so one compare-and-subtract replaces the modulo). On top of
// that, unscrambled runs move data with wide copies, and an unscrambled
// read patches its window in one ascending pass over the fault map's
// entries there (FaultMap::entries) instead of a lookup per word.
// Addresses, stored bits and stats match the scalar loop exactly on every
// path.

template <typename Word>
void FaultyMemory::write_block_impl(std::size_t addr, const Word* src,
                                    std::size_t n) {
  detail::check_range(addr, n, store_.size(), "FaultyMemory::write_block");
  const std::uint32_t wm = width_mask_;
  stats_.writes += n;
  if (!scrambled()) {
    std::uint32_t* const out = store_.data() + addr;
    for (std::size_t i = 0; i < n; ++i) out[i] = src[i] & wm;
    return;
  }
  const std::uint64_t words = store_.size();
  std::uint64_t phys = affine_mod(addr, scramble_mul_, scramble_add_, words);
  std::uint32_t* const mem = store_.data();
  for (std::size_t i = 0; i < n; ++i) {
    mem[static_cast<std::size_t>(phys)] = src[i] & wm;
    phys = next_row(phys, scramble_mul_, words);
  }
}

void FaultyMemory::write_block(std::size_t addr,
                               std::span<const std::uint32_t> src) {
  write_block_impl(addr, src.data(), src.size());
}

void FaultyMemory::write_block(std::size_t addr,
                               std::span<const std::uint16_t> src) {
  write_block_impl(addr, src.data(), src.size());
}

std::size_t FaultyMemory::peek_block(std::size_t addr,
                                     std::span<std::uint32_t> dst,
                                     std::span<std::uint8_t> patched) const {
  const std::size_t n = dst.size();
  detail::check_range(addr, n, store_.size(), "FaultyMemory::peek_block");
  if (!patched.empty() && patched.size() != n) {
    throw std::invalid_argument("FaultyMemory::peek_block: patched span");
  }
  std::fill(patched.begin(), patched.end(), std::uint8_t{0});
  std::uint8_t* const flags = patched.empty() ? nullptr : patched.data();
  const std::uint32_t wm = width_mask_;
  if (!scrambled()) {
    // One masked copy of the window, then one pass over the map entries
    // whose words lie in it: the words lookup() would find, in order.
    const std::uint32_t* const src = store_.data() + addr;
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[i] & wm;
    if (faults_ == nullptr) return 0;
    const FaultMap::EntryRange faulty = faults_->entries(addr, n);
    for (std::size_t k = 0; k < faulty.words.size(); ++k) {
      const std::size_t i = faulty.words[k] - addr;
      dst[i] = faulty.faults[k].apply(src[i]) & wm;
      if (flags != nullptr) flags[i] = 1;
    }
    return faulty.words.size();
  }
  // Scrambled rows are not visited in ascending order: look each one up.
  const FaultMap* const faults =
      faults_ != nullptr && faults_->entry_count() != 0 ? faults_ : nullptr;
  std::size_t hits = 0;
  const std::uint64_t words = store_.size();
  std::uint64_t phys = affine_mod(addr, scramble_mul_, scramble_add_, words);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = static_cast<std::size_t>(phys);
    std::uint32_t bits = store_[row];
    if (faults != nullptr) {
      if (const WordFaults* f = faults->lookup(row)) {
        bits = f->apply(bits);
        ++hits;
        if (flags != nullptr) flags[i] = 1;
      }
    }
    dst[i] = bits & wm;
    phys = next_row(phys, scramble_mul_, words);
  }
  return hits;
}

void FaultyMemory::read_block(std::size_t addr,
                              std::span<std::uint32_t> dst) const {
  const std::size_t patched = peek_block(addr, dst, {});
  count_reads(addr, dst.size(), dst.size());
  if (patched != 0) fault_patch_counter().add(patched);
}

SafeMemory::SafeMemory(std::size_t words, int width_bits)
    : width_(width_bits), store_(words, 0) {
  if (width_bits <= 0 || width_bits > 16) {
    throw std::invalid_argument("SafeMemory: width must be in [1, 16]");
  }
  width_mask_ = static_cast<std::uint16_t>((1u << width_bits) - 1u);
}

void SafeMemory::write(std::size_t addr, std::uint16_t bits) {
  store_.at(addr) = bits & width_mask_;
  ++stats_.writes;
}

std::uint16_t SafeMemory::read(std::size_t addr) const {
  ++stats_.reads;
  return store_.at(addr);
}

void SafeMemory::write_block(std::size_t addr,
                             std::span<const std::uint16_t> src) {
  const std::size_t n = src.size();
  detail::check_range(addr, n, store_.size(), "SafeMemory::write_block");
  for (std::size_t i = 0; i < n; ++i) store_[addr + i] = src[i] & width_mask_;
  stats_.writes += n;
}

void SafeMemory::read_block(std::size_t addr,
                            std::span<std::uint16_t> dst) const {
  peek_block(addr, dst);
  count_reads(addr, dst.size(), dst.size());
}

void SafeMemory::peek_block(std::size_t addr,
                            std::span<std::uint16_t> dst) const {
  detail::check_range(addr, dst.size(), store_.size(),
                      "SafeMemory::peek_block");
  std::copy_n(store_.data() + addr, dst.size(), dst.data());
}

}  // namespace ulpdream::mem
