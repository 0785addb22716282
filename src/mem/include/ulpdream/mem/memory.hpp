#pragma once
// The INYU-style banked data memory model (VirtualSOC substitute, see
// DESIGN.md). A 32 kB shared memory organized as 16 banks behind a
// crossbar, accessed word-at-a-time at 200 MHz. The data array can be
// voltage-scaled and therefore carries a stuck-at fault map; the small
// side array used by DREAM for mask IDs always runs at nominal voltage and
// is error-free by construction.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ulpdream/mem/fault_map.hpp"

namespace ulpdream::mem {

/// Geometry defaults taken from the paper's experimental setup (Sec. V).
struct MemoryGeometry {
  static constexpr std::size_t kBytes = 32 * 1024;
  static constexpr std::size_t kWords16 = kBytes / 2;  ///< 16384 words
  static constexpr int kBanks = 16;
  static constexpr double kClockHz = 200e6;
};

/// Read/write counters, total and per bank — the access traces the energy
/// model integrates over.
struct AccessStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::vector<std::uint64_t> bank_reads;
  std::vector<std::uint64_t> bank_writes;

  void reset(std::size_t banks);
  [[nodiscard]] std::uint64_t total() const noexcept { return reads + writes; }
};

/// Word-addressable memory with configurable word width (16 data bits plus
/// any EMT check bits stored in the scaled array), banking, an optional
/// stuck-at fault map and an optional logical->physical address scrambler.
class FaultyMemory {
 public:
  FaultyMemory(std::size_t words, int width_bits,
               int banks = MemoryGeometry::kBanks);

  [[nodiscard]] std::size_t words() const noexcept { return store_.size(); }
  [[nodiscard]] int width_bits() const noexcept { return width_; }
  [[nodiscard]] int banks() const noexcept { return banks_; }

  /// Attaches (non-owning) a fault map; pass nullptr to clear. The map's
  /// geometry is validated: it must cover this memory (word count >= words()
  /// and bits_per_word >= width_bits()), otherwise std::invalid_argument is
  /// thrown and the previously attached map stays in effect. The map must
  /// not change while it is attached: faults are permanent stuck-at cells,
  /// and core::MemorySystem decodes each word once per write on that basis.
  void attach_faults(const FaultMap* map);

  /// The geometry check attach_faults() applies: throws
  /// std::invalid_argument unless `map` covers a memory of `words` words
  /// of `width_bits` bits.
  static void check_covers(const FaultMap& map, std::size_t words,
                           int width_bits);

  /// Enables logical->physical address scrambling with the given seed
  /// (0 disables). Scrambling randomizes which logical word lands on which
  /// physical (possibly faulty) row — the paper's Sec. V randomization.
  /// The mapping is the affine permutation logical*mul + add (mod words())
  /// with mul coprime to words(), so every logical word owns one row on
  /// any geometry.
  void set_scrambler(std::uint64_t seed);

  /// Word accessors; throw std::out_of_range for addr >= words().
  void write(std::size_t addr, std::uint32_t bits);
  [[nodiscard]] std::uint32_t read(std::size_t addr) const;

  /// Block transfers: semantically identical to a loop of word accesses
  /// over [addr, addr + span size) — same scrambling, fault application,
  /// masking and per-bank stats — but with the address math, fault lookup
  /// and bookkeeping hoisted into one tight loop and a single bounds
  /// check. Throws std::out_of_range when the range does not fit.
  void write_block(std::size_t addr, std::span<const std::uint32_t> src);
  void read_block(std::size_t addr, std::span<std::uint32_t> dst) const;

  /// 16-bit block write for EMTs whose payload is the raw sample word:
  /// same semantics as the 32-bit overload (words zero-extend) without a
  /// 32-bit staging buffer in the caller.
  void write_block(std::size_t addr, std::span<const std::uint16_t> src);

  /// The two halves of read_block(), for core::MemorySystem's decoded
  /// shadow. peek_block() returns the bits read_block() would and counts
  /// nothing (neither stats() nor mem.fault_patch_words); `patched` is
  /// empty or one flag per word, set to 1 where a FaultMap entry covers
  /// the word and 0 elsewhere. Returns the number of such words.
  /// count_reads() adds a read of [addr, addr + n) to stats() without
  /// reading — exactly what read_block() adds. Both throw
  /// std::out_of_range when the range does not fit.
  std::size_t peek_block(std::size_t addr, std::span<std::uint32_t> dst,
                         std::span<std::uint8_t> patched) const;
  void count_reads(std::size_t addr, std::size_t n) const;

  /// Bits as physically stored (after stuck-at application), for tests.
  [[nodiscard]] std::uint32_t peek_physical(std::size_t addr) const;

  void fill(std::uint32_t bits);

  [[nodiscard]] const AccessStats& stats() const noexcept { return stats_; }
  void reset_stats();

 private:
  /// Shared body of the 32/16-bit block writes (memory.cpp).
  template <typename Word>
  void write_block_impl(std::size_t addr, const Word* src, std::size_t n);
  /// Adds the per-bank counts of a block access of [addr, addr + n).
  void add_bank_counts(std::uint64_t* counts, std::size_t addr,
                       std::size_t n) const;

  [[nodiscard]] bool scrambled() const noexcept {
    return scramble_mul_ != 1 || scramble_add_ != 0;
  }
  [[nodiscard]] std::size_t physical(std::size_t logical) const;
  [[nodiscard]] int bank_of(std::size_t phys) const noexcept {
    return static_cast<int>(phys % static_cast<std::size_t>(banks_));
  }

  int width_ = 16;
  int banks_ = MemoryGeometry::kBanks;
  std::uint32_t width_mask_ = 0xFFFFu;
  std::vector<std::uint32_t> store_;
  const FaultMap* faults_ = nullptr;
  /// Affine scrambler, both < words(): mul coprime to words() (identity
  /// when mul is 1 and add 0).
  std::uint64_t scramble_mul_ = 1;
  std::uint64_t scramble_add_ = 0;
  mutable AccessStats stats_;
};

/// Error-free side memory (always at nominal voltage): DREAM's mask-ID and
/// sign-bit store. Narrow words (<= 16 bits).
class SafeMemory {
 public:
  SafeMemory(std::size_t words, int width_bits);

  [[nodiscard]] std::size_t words() const noexcept { return store_.size(); }
  [[nodiscard]] int width_bits() const noexcept { return width_; }

  void write(std::size_t addr, std::uint16_t bits);
  [[nodiscard]] std::uint16_t read(std::size_t addr) const;

  /// Block transfers, loop-equivalent to the word accessors (see
  /// FaultyMemory::write_block).
  void write_block(std::size_t addr, std::span<const std::uint16_t> src);
  void read_block(std::size_t addr, std::span<std::uint16_t> dst) const;

  /// The stats-free read and the stats-only read, as on FaultyMemory.
  void peek_block(std::size_t addr, std::span<std::uint16_t> dst) const;
  void count_reads(std::size_t addr, std::size_t n) const;

  [[nodiscard]] const AccessStats& stats() const noexcept { return stats_; }
  void reset_stats();

 private:
  int width_;
  std::uint16_t width_mask_;
  std::vector<std::uint16_t> store_;
  mutable AccessStats stats_;
};

}  // namespace ulpdream::mem
