#include "ulpdream/mem/memory.hpp"

#include <algorithm>
#include <bit>
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

void AccessStats::reset(std::size_t banks) {
  reads = 0;
  writes = 0;
  bank_reads.assign(banks, 0);
  bank_writes.assign(banks, 0);
}

FaultyMemory::FaultyMemory(std::size_t words, int width_bits, int banks)
    : width_(width_bits), banks_(banks), store_(words, 0) {
  if (width_bits <= 0 || width_bits > 32) {
    throw std::invalid_argument("FaultyMemory: width must be in [1, 32]");
  }
  if (banks <= 0) {
    throw std::invalid_argument("FaultyMemory: banks must be positive");
  }
  width_mask_ = width_bits == 32 ? 0xFFFFFFFFu : ((1u << width_bits) - 1u);
  stats_.reset(static_cast<std::size_t>(banks));
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

void check_range(std::size_t addr, std::size_t n, std::size_t words,
                 const char* what) {
  if (n > words || addr > words - n) {
    throw std::out_of_range(std::string(what) + ": range");
  }
}

// --- bank accounting, hoisted out of the word loops ----------------------
//
// Bank counts depend only on the physical address sequence, never on the
// data or the fault map, so the block paths compute them arithmetically in
// O(banks) instead of one memory-indirect increment per word.

// Contiguous run [phys, phys + n): every bank gets floor(n / banks), and
// the n % banks remainder lands on consecutive banks starting at
// phys % banks. Power-of-two bank counts (the paper's 16) take shifts and
// masks instead of three divisions: this runs once per block call.
void add_contiguous_bank_counts(std::uint64_t* counts, std::size_t banks,
                                std::uint64_t phys, std::uint64_t n) {
  const bool pow2 = is_pow2(banks);
  const std::uint64_t whole =
      pow2 ? n >> std::countr_zero(banks) : n / banks;
  std::uint64_t rem = pow2 ? n & (banks - 1) : n % banks;
  if (whole != 0) {
    for (std::size_t b = 0; b < banks; ++b) counts[b] += whole;
  }
  auto b = static_cast<std::size_t>(pow2 ? phys & (banks - 1) : phys % banks);
  while (rem-- > 0) {
    ++counts[b];
    if (++b == banks) b = 0;
  }
}

// Scrambled run phys_i = (phys0 + i*step) mod words with a power-of-two
// bank count dividing words: the bank residue collapses to
// (phys0 + i*step) mod banks, which depends only on i mod banks. Index
// class j therefore contributes ceil((n - j) / banks) accesses to bank
// (phys0 + j*step) mod banks.
void add_strided_bank_counts(std::uint64_t* counts, std::size_t banks,
                             std::uint64_t phys0, std::uint64_t step,
                             std::uint64_t n) {
  const std::uint64_t bmask = banks - 1;
  for (std::uint64_t j = 0; j < banks && j < n; ++j) {
    counts[(phys0 + j * step) & bmask] += (n - j + banks - 1) / banks;
  }
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
  const std::size_t phys = physical(addr);
  store_[phys] = bits & width_mask_;
  ++stats_.writes;
  ++stats_.bank_writes[static_cast<std::size_t>(bank_of(phys))];
}

std::uint32_t FaultyMemory::read(std::size_t addr) const {
  const std::size_t phys = physical(addr);
  std::uint32_t bits = store_[phys];
  if (faults_ != nullptr) {
    if (const WordFaults* f = faults_->lookup(phys)) {
      bits = f->apply(bits);
      fault_patch_counter().add();
    }
  }
  ++stats_.reads;
  ++stats_.bank_reads[static_cast<std::size_t>(bank_of(phys))];
  return bits & width_mask_;
}

void FaultyMemory::add_bank_counts(std::uint64_t* counts, std::size_t addr,
                                   std::size_t n) const {
  const auto banks = static_cast<std::size_t>(banks_);
  if (!scrambled()) {
    add_contiguous_bank_counts(counts, banks, addr, n);
    return;
  }
  const std::uint64_t words = store_.size();
  std::uint64_t phys = affine_mod(addr, scramble_mul_, scramble_add_, words);
  if (is_pow2(banks) && words % banks == 0) {
    add_strided_bank_counts(counts, banks, phys, scramble_mul_, n);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    ++counts[static_cast<std::size_t>(phys % banks)];
    phys = next_row(phys, scramble_mul_, words);
  }
}

// The block loops hoist the per-word costs of the scalar accessors — the
// cross-TU call, the bounds check and the 64-bit division behind the
// affine scrambler (consecutive logical words step their row by the
// multiplier, so one compare-and-subtract replaces the modulo). On top of
// that, bank stats are computed arithmetically, and unscrambled runs move
// data with wide copies (skipping per-word fault lookups for chunks the
// presence bitmap marks clean). Addresses, stored bits and stats match
// the scalar loop exactly on every path.

template <typename Word>
void FaultyMemory::write_block_impl(std::size_t addr, const Word* src,
                                    std::size_t n) {
  check_range(addr, n, store_.size(), "FaultyMemory::write_block");
  const std::uint32_t wm = width_mask_;
  stats_.writes += n;
  add_bank_counts(stats_.bank_writes.data(), addr, n);
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
  check_range(addr, n, store_.size(), "FaultyMemory::peek_block");
  if (!patched.empty() && patched.size() != n) {
    throw std::invalid_argument("FaultyMemory::peek_block: patched span");
  }
  std::fill(patched.begin(), patched.end(), std::uint8_t{0});
  std::uint8_t* const flags = patched.empty() ? nullptr : patched.data();
  const FaultMap* const faults =
      faults_ != nullptr && faults_->entry_count() != 0 ? faults_ : nullptr;
  const std::uint32_t wm = width_mask_;
  std::size_t hits = 0;
  // Word i of the run, stored in physical row `phys`.
  const auto load = [&](std::size_t i, std::size_t phys) {
    std::uint32_t bits = store_[phys];
    if (const WordFaults* f = faults->lookup(phys)) {
      bits = f->apply(bits);
      ++hits;
      if (flags != nullptr) flags[i] = 1;
    }
    dst[i] = bits & wm;
  };
  if (!scrambled()) {
    const std::uint32_t* const src = store_.data() + addr;
    if (faults == nullptr) {
      for (std::size_t i = 0; i < n; ++i) dst[i] = src[i] & wm;
      return 0;
    }
    // Walk chunk by chunk: one presence bit decides between a wide copy
    // and the per-word lookup loop.
    std::size_t i = 0;
    while (i < n) {
      const std::size_t chunk = (addr + i) / FaultMap::kChunkWords;
      const std::size_t run_end = std::min<std::size_t>(
          n, (chunk + 1) * FaultMap::kChunkWords - addr);
      if (faults->chunk_clean(chunk)) {
        for (; i < run_end; ++i) dst[i] = src[i] & wm;
      } else {
        for (; i < run_end; ++i) load(i, addr + i);
      }
    }
    return hits;
  }
  const std::uint64_t words = store_.size();
  std::uint64_t phys = affine_mod(addr, scramble_mul_, scramble_add_, words);
  for (std::size_t i = 0; i < n; ++i) {
    if (faults == nullptr) {
      dst[i] = store_[static_cast<std::size_t>(phys)] & wm;
    } else {
      load(i, static_cast<std::size_t>(phys));
    }
    phys = next_row(phys, scramble_mul_, words);
  }
  return hits;
}

void FaultyMemory::count_reads(std::size_t addr, std::size_t n) const {
  check_range(addr, n, store_.size(), "FaultyMemory::count_reads");
  stats_.reads += n;
  add_bank_counts(stats_.bank_reads.data(), addr, n);
}

void FaultyMemory::read_block(std::size_t addr,
                              std::span<std::uint32_t> dst) const {
  const std::size_t patched = peek_block(addr, dst, {});
  count_reads(addr, dst.size());
  if (patched != 0) fault_patch_counter().add(patched);
}

std::uint32_t FaultyMemory::peek_physical(std::size_t addr) const {
  const std::size_t phys = physical(addr);
  std::uint32_t bits = store_.at(phys);
  if (faults_ != nullptr) {
    if (const WordFaults* f = faults_->lookup(phys)) bits = f->apply(bits);
  }
  return bits & width_mask_;
}

void FaultyMemory::fill(std::uint32_t bits) {
  for (auto& w : store_) w = bits & width_mask_;
}

void FaultyMemory::reset_stats() {
  stats_.reset(static_cast<std::size_t>(banks_));
}

SafeMemory::SafeMemory(std::size_t words, int width_bits)
    : width_(width_bits), store_(words, 0) {
  if (width_bits <= 0 || width_bits > 16) {
    throw std::invalid_argument("SafeMemory: width must be in [1, 16]");
  }
  width_mask_ = static_cast<std::uint16_t>((1u << width_bits) - 1u);
  stats_.reset(1);
}

void SafeMemory::write(std::size_t addr, std::uint16_t bits) {
  store_.at(addr) = bits & width_mask_;
  ++stats_.writes;
  ++stats_.bank_writes[0];
}

std::uint16_t SafeMemory::read(std::size_t addr) const {
  ++stats_.reads;
  ++stats_.bank_reads[0];
  return store_.at(addr);
}

void SafeMemory::write_block(std::size_t addr,
                             std::span<const std::uint16_t> src) {
  const std::size_t n = src.size();
  check_range(addr, n, store_.size(), "SafeMemory::write_block");
  for (std::size_t i = 0; i < n; ++i) store_[addr + i] = src[i] & width_mask_;
  stats_.writes += n;
  stats_.bank_writes[0] += n;
}

void SafeMemory::read_block(std::size_t addr,
                            std::span<std::uint16_t> dst) const {
  peek_block(addr, dst);
  count_reads(addr, dst.size());
}

void SafeMemory::peek_block(std::size_t addr,
                            std::span<std::uint16_t> dst) const {
  check_range(addr, dst.size(), store_.size(), "SafeMemory::peek_block");
  std::copy_n(store_.data() + addr, dst.size(), dst.data());
}

void SafeMemory::count_reads(std::size_t addr, std::size_t n) const {
  check_range(addr, n, store_.size(), "SafeMemory::count_reads");
  stats_.reads += n;
  stats_.bank_reads[0] += n;
}

void SafeMemory::reset_stats() { stats_.reset(1); }

}  // namespace ulpdream::mem
