#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <thread>
#include <vector>

#include "ulpdream/mem/ber_model.hpp"
#include "ulpdream/mem/fault_map.hpp"
#include "ulpdream/mem/memory.hpp"
#include "ulpdream/util/rng.hpp"

namespace ulpdream::mem {
namespace {

TEST(BerModel, LogLinearCalibrationPoints) {
  const LogLinearBerModel model;
  EXPECT_NEAR(model.ber(0.9), 5e-8, 5e-9);
  EXPECT_NEAR(model.ber(0.5), 2e-2, 1e-3);
}

TEST(BerModel, LogLinearMonotoneDecreasing) {
  const LogLinearBerModel model;
  double prev = 1.0;
  for (double v = 0.5; v <= 0.9 + 1e-9; v += 0.05) {
    const double b = model.ber(v);
    EXPECT_LT(b, prev);
    prev = b;
  }
}

TEST(BerModel, ProbitMonotoneAndBounded) {
  const ProbitBerModel model;
  double prev = 1.0;
  for (double v = 0.4; v <= 1.0; v += 0.05) {
    const double b = model.ber(v);
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
    EXPECT_LE(b, prev + 1e-15);
    prev = b;
  }
}

TEST(BerModel, ProbitHalfAtV50) {
  const ProbitBerModel model(0.42, 0.04);
  EXPECT_NEAR(model.ber(0.42), 0.5, 1e-12);
}

TEST(BerModel, FactoryProducesBothKinds) {
  EXPECT_EQ(make_ber_model("log-linear")->name(), "log-linear");
  EXPECT_EQ(make_ber_model("probit")->name(), "probit");
}

TEST(BerModel, RejectsBadParameters) {
  EXPECT_THROW(LogLinearBerModel(0.0, 0.1), std::invalid_argument);
  EXPECT_THROW(LogLinearBerModel(1e-9, 2e-2, 0.5, 0.9),
               std::invalid_argument);
  EXPECT_THROW(ProbitBerModel(0.4, 0.0), std::invalid_argument);
}

TEST(FaultMap, ApplyForcesStuckBits) {
  WordFaults wf;
  wf.mask = 0b1010;
  wf.value = 0b1000;  // bit3 stuck at 1, bit1 stuck at 0
  EXPECT_EQ(wf.apply(0b0000), 0b1000u);
  EXPECT_EQ(wf.apply(0b1111), 0b1101u);
  EXPECT_EQ(wf.apply(0b0101), 0b1101u);
}

TEST(FaultMap, RandomFaultCountTracksBer) {
  const std::size_t words = 4096;
  const int bits = 22;
  const double ber = 1e-3;
  util::Xoshiro256 gen_rng(10);
  double total = 0.0;
  const int reps = 20;
  for (int i = 0; i < reps; ++i) {
    const FaultMap map = FaultMap::random(words, bits, ber, gen_rng);
    total += static_cast<double>(map.fault_count());
  }
  const double expected = static_cast<double>(words) * bits * ber;
  EXPECT_NEAR(total / reps / expected, 1.0, 0.15);
}

TEST(FaultMap, RandomZeroBerIsClean) {
  util::Xoshiro256 rng(1);
  const FaultMap map = FaultMap::random(100, 16, 0.0, rng);
  EXPECT_EQ(map.fault_count(), 0u);
}

/// FNV-1a 64 over everything a reader sees of `map` — every (word, mask,
/// value) lookup() returns, in word order, then entry_count() — and the
/// RNG's next output, which pins how many draws the map took.
std::uint64_t map_digest(const FaultMap& map, util::Xoshiro256& rng) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto fold = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  for (std::size_t w = 0; w < map.words(); ++w) {
    if (const WordFaults* f = map.lookup(w)) {
      fold(w);
      fold(f->mask);
      fold(f->value);
    }
  }
  fold(map.entry_count());
  fold(rng());
  return hash;
}

TEST(FaultMap, RandomMapsArePinned) {
  // Every campaign result rests on these maps, so they are pinned across
  // commits: same cells, same stuck values, same number of RNG draws.
  constexpr double kVolts[] = {0.50, 0.55, 0.60, 0.65, 0.70,
                               0.75, 0.80, 0.85, 0.90};
  constexpr std::uint64_t kSeeds[] = {1, 2016, 0x9e3779b97f4a7c15ULL};
  // kPaperDigests[v][s]: the paper's 16384 x 22 map at kVolts[v], kSeeds[s].
  // Every digest below was produced by an independent generator (rejection
  // on a hash set), so they pin the draws, not this implementation.
  constexpr std::uint64_t kPaperDigests[9][3] = {
      {0x6482c1fe4967a5d6, 0xa003352a69e759f9, 0xceda6ef3191b8dd7},
      {0x5a889274e2ddb982, 0x1219cefa1708303a, 0x09e8045503434643},
      {0xa51970dae78a2329, 0x39212216e2996de3, 0x5741856195828748},
      {0xbbfd829b699db409, 0xaeb68a4c0d8a8ba6, 0x9fdc45e938fc1e06},
      {0x6ef871423ff7df41, 0x53a50824c5c6e6bc, 0x669072eaaf39da12},
      {0x697889a5e009f2cc, 0x5c673a14fa64d7ed, 0x1a47b1867a4a7a0e},
      {0x5f429398f753192e, 0xa598d43cd53b68d1, 0xef931a5d18ee544b},
      {0x86ebcd4b9e2fda25, 0xa598d43cd53b68d1, 0xef931a5d18ee544b},
      {0x86ebcd4b9e2fda25, 0xa598d43cd53b68d1, 0xef931a5d18ee544b}};
  const LogLinearBerModel model;
  for (std::size_t v = 0; v < std::size(kVolts); ++v) {
    for (std::size_t s = 0; s < std::size(kSeeds); ++s) {
      util::Xoshiro256 rng(kSeeds[s]);
      const FaultMap map = FaultMap::random(MemoryGeometry::kWords16, 22,
                                            model.ber(kVolts[v]), rng);
      const std::uint64_t digest = map_digest(map, rng);
      EXPECT_EQ(digest, kPaperDigests[v][s])
          << std::hex << "0x" << digest << std::dec << " at " << kVolts[v]
          << " V, seed " << kSeeds[s];
    }
  }

  struct Case {
    const char* what;
    std::size_t words;
    int bits;
    double ber;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"every cell stuck", 512, 22, 1.0, 5, 0x06118918d6c60945},
      {"66 cells: the last 64-cell slot is partial", 3, 22, 0.5, 6,
       0xcabaedbe53f77f82},
      {"one cell", 1, 1, 1.0, 7, 0xd28ad1a4628088f9},
      {"32-bit words: masks reach bit 31", 100, 32, 0.1, 8,
       0x13c5b791921922a8},
      {"16-bit words", 4096, 16, 1e-3, 9, 0x7f925e07ad9660d3},
  };
  for (const Case& c : cases) {
    util::Xoshiro256 rng(c.seed);
    const FaultMap map = FaultMap::random(c.words, c.bits, c.ber, rng);
    const std::uint64_t digest = map_digest(map, rng);
    EXPECT_EQ(digest, c.digest) << std::hex << "0x" << digest << ": " << c.what;
  }
  util::Xoshiro256 rng(5);
  EXPECT_EQ(FaultMap::random(512, 22, 1.0, rng).fault_count(), 512u * 22u);
}

TEST(FaultMap, ConcurrentGeneratorsMatchSerialMaps) {
  // Each thread alternates a large map, a 66-cell map and a mid-sized one
  // from fixed seeds on its own generator scratch. A scratch that a large
  // map left dirty would leak cells into the next small one.
  struct Kind {
    std::size_t words;
    int bits;
    double ber;
  };
  const Kind kinds[] = {{MemoryGeometry::kWords16, 22,
                         LogLinearBerModel().ber(0.50)},
                        {3, 22, 0.5},
                        {4096, 16, 1e-3}};
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kMapsPerThread = 12;
  const auto digest = [&kinds](std::size_t thread, std::size_t i) {
    const Kind& kind = kinds[i % std::size(kinds)];
    util::Xoshiro256 rng(1000 * thread + i);
    const FaultMap map = FaultMap::random(kind.words, kind.bits, kind.ber, rng);
    return map_digest(map, rng);
  };

  std::vector<std::uint64_t> serial(kThreads * kMapsPerThread);
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kMapsPerThread; ++i) {
      serial[t * kMapsPerThread + i] = digest(t, i);
    }
  }
  std::vector<std::uint64_t> concurrent(serial.size());
  {
    std::vector<std::thread> generators;
    for (std::size_t t = 0; t < kThreads; ++t) {
      generators.emplace_back([&digest, &concurrent, t] {
        for (std::size_t i = 0; i < kMapsPerThread; ++i) {
          concurrent[t * kMapsPerThread + i] = digest(t, i);
        }
      });
    }
    for (auto& thread : generators) thread.join();
  }
  EXPECT_EQ(concurrent, serial);
}

TEST(FaultMap, StuckBitCoversEveryWord) {
  const FaultMap map = FaultMap::stuck_bit(64, 16, 7, true);
  EXPECT_EQ(map.fault_count(), 64u);
  for (std::size_t w = 0; w < 64; ++w) {
    EXPECT_EQ(map.at(w).mask, 1u << 7);
    EXPECT_EQ(map.at(w).value, 1u << 7);
  }
}

TEST(FaultMap, CleanBelowLooksAtTheLowestEntry) {
  FaultMap map(256, 16);
  EXPECT_TRUE(map.clean_below(256));
  map.edit(200).mask = 1u << 3;
  map.edit(40) = {};  // an entry with no stuck cell still counts
  EXPECT_TRUE(map.clean_below(40));
  EXPECT_FALSE(map.clean_below(41));
  EXPECT_FALSE(map.clean_below(256));
  EXPECT_FALSE(FaultMap::stuck_bit(64, 16, 0, false).clean_below(1));
  EXPECT_TRUE(FaultMap::stuck_bit(64, 16, 0, false).clean_below(0));
}

TEST(FaultMap, StuckBitRejectsOutOfRange) {
  EXPECT_THROW(FaultMap::stuck_bit(8, 16, 16, false), std::invalid_argument);
  EXPECT_THROW(FaultMap::stuck_bit(8, 16, -1, false), std::invalid_argument);
}

TEST(FaultMap, ConcurrentReadersNeverGrowTheMap) {
  // The const read path (lookup/entries) must be insertion-free: with
  // the mutable accessor split off as edit(), concurrent block readers
  // share one map with no synchronization. Hammer the full read surface
  // from several threads — the calls FaultyMemory's word reads (lookup)
  // and unscrambled block reads (entries) make — and pin that every
  // reader sees the exact pre-snapshot answers and the map's shape is
  // untouched afterwards. The const path touches only immutable state,
  // so the sanitizer preset stays clean.
  constexpr std::size_t kWords = 2048;
  util::Xoshiro256 rng(2016);
  const FaultMap map = FaultMap::random(kWords, 16, 1e-3, rng);
  const std::size_t entries_before = map.entry_count();
  const std::size_t faults_before = map.fault_count();
  ASSERT_GT(entries_before, 0u);

  // Serial snapshot of everything a reader can observe: each word's
  // faults, and how many entries lie below each word.
  std::vector<WordFaults> reference(kWords);
  std::vector<std::size_t> entries_below(kWords + 1, 0);
  for (std::size_t w = 0; w < kWords; ++w) {
    const WordFaults* f = map.lookup(w);
    if (f != nullptr) reference[w] = *f;
    entries_below[w + 1] = entries_below[w] + (f != nullptr ? 1 : 0);
  }
  ASSERT_EQ(entries_below[kWords], entries_before);

  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  {
    std::vector<std::thread> readers;
    readers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      readers.emplace_back([&map, &reference, &entries_below, &mismatches,
                            t] {
        // Stride per thread so the access interleavings differ.
        const std::size_t stride = 1 + static_cast<std::size_t>(t);
        for (int rep = 0; rep < 50; ++rep) {
          for (std::size_t w = 0; w < kWords; ++w) {
            const std::size_t word = (w * stride) % kWords;
            WordFaults seen;
            if (const WordFaults* f = map.lookup(word)) seen = *f;
            if (seen.mask != reference[word].mask ||
                seen.value != reference[word].value) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
            // A window from this word, 1 to 200 words long, ending at
            // most at the map's end: its entries, in order, and no more.
            const std::size_t n =
                std::min<std::size_t>(1 + (w * 7 + rep) % 200, kWords - word);
            const FaultMap::EntryRange range = map.entries(word, n);
            bool same = range.words.size() ==
                            entries_below[word + n] - entries_below[word] &&
                        range.faults.size() == range.words.size();
            for (std::size_t k = 0; same && k < range.words.size(); ++k) {
              const std::uint32_t at = range.words[k];
              same = at >= word && at < word + n &&
                     (k == 0 || range.words[k - 1] < at) &&
                     range.faults[k].mask == reference[at].mask &&
                     range.faults[k].value == reference[at].value;
            }
            if (!same) mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& th : readers) th.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(map.entry_count(), entries_before);
  EXPECT_EQ(map.fault_count(), faults_before);
}

TEST(FaultyMemory, CleanReadBackAfterWrite) {
  FaultyMemory mem(128, 16);
  mem.write(5, 0xBEEF);
  EXPECT_EQ(mem.read(5), 0xBEEFu);
}

TEST(FaultyMemory, WidthMaskApplied) {
  FaultyMemory mem(16, 16);
  mem.write(0, 0xFFFFFFFF);
  EXPECT_EQ(mem.read(0), 0xFFFFu);
}

TEST(FaultyMemory, StuckBitsCorruptReads) {
  FaultyMemory mem(16, 16);
  const FaultMap map = FaultMap::stuck_bit(16, 16, 3, true);
  mem.attach_faults(&map);
  mem.write(2, 0x0000);
  EXPECT_EQ(mem.read(2), 0x0008u);
  mem.write(2, 0xFFF7);
  EXPECT_EQ(mem.read(2), 0xFFFFu);
}

TEST(FaultyMemory, FaultMapMustCoverMemory) {
  FaultyMemory mem(128, 22);
  const FaultMap small_map(64, 22);
  EXPECT_THROW(mem.attach_faults(&small_map), std::invalid_argument);
  const FaultMap narrow_map(128, 16);
  EXPECT_THROW(mem.attach_faults(&narrow_map), std::invalid_argument);
}

TEST(FaultyMemory, AccessCountersTrackReadsWrites) {
  FaultyMemory mem(64, 16);
  mem.write(0, 1);
  mem.write(1, 2);
  (void)mem.read(0);
  EXPECT_EQ(mem.stats().writes, 2u);
  EXPECT_EQ(mem.stats().reads, 1u);
  EXPECT_EQ(mem.stats().total(), 3u);
}

TEST(FaultyMemory, ScramblerPreservesReadWriteConsistency) {
  FaultyMemory mem(256, 16);
  mem.set_scrambler(77);
  for (std::size_t i = 0; i < 256; ++i) {
    mem.write(i, static_cast<std::uint32_t>(i * 3));
  }
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_EQ(mem.read(i), static_cast<std::uint32_t>(i * 3) & 0xFFFFu);
  }
}

TEST(FaultyMemory, ScramblerMovesFaultExposure) {
  // With scrambling, a fault pinned to physical word 0 hits a different
  // logical address than without scrambling.
  FaultMap map(64, 16);
  map.edit(0).mask = 0xFFFF;
  map.edit(0).value = 0xAAAA;

  FaultyMemory plain(64, 16);
  plain.attach_faults(&map);
  plain.write(0, 0x1111);
  EXPECT_EQ(plain.read(0), 0xAAAAu);

  FaultyMemory scrambled(64, 16);
  scrambled.set_scrambler(123);
  scrambled.attach_faults(&map);
  scrambled.write(0, 0x1111);
  // Logical 0 now maps elsewhere; find which logical address is corrupted.
  std::size_t corrupted = 64;
  for (std::size_t i = 0; i < 64; ++i) {
    scrambled.write(i, 0x1111);
    if (scrambled.read(i) == 0xAAAAu) corrupted = i;
  }
  EXPECT_NE(corrupted, 0u);
  EXPECT_LT(corrupted, 64u);
}

TEST(FaultyMemory, RejectsBadGeometry) {
  EXPECT_THROW(FaultyMemory(16, 0), std::invalid_argument);
  EXPECT_THROW(FaultyMemory(16, 33), std::invalid_argument);
}

TEST(SafeMemory, RoundTripAndMask) {
  SafeMemory mem(32, 5);
  mem.write(3, 0b11111111);
  EXPECT_EQ(mem.read(3), 0b11111u);  // masked to 5 bits
  EXPECT_EQ(mem.stats().writes, 1u);
  EXPECT_EQ(mem.stats().reads, 1u);
}

TEST(SafeMemory, RejectsWideWords) {
  EXPECT_THROW(SafeMemory(16, 17), std::invalid_argument);
}

TEST(Geometry, PaperConstants) {
  EXPECT_EQ(MemoryGeometry::kBytes, 32u * 1024u);
  EXPECT_EQ(MemoryGeometry::kWords16, 16384u);
  EXPECT_DOUBLE_EQ(MemoryGeometry::kClockHz, 200e6);
}

class BerSweep : public ::testing::TestWithParam<double> {};

TEST_P(BerSweep, FaultDensityMatchesRequestedBer) {
  const double ber = GetParam();
  util::Xoshiro256 rng(static_cast<std::uint64_t>(ber * 1e9) + 1);
  const std::size_t words = 16384;
  const int bits = 22;
  const FaultMap map = FaultMap::random(words, bits, ber, rng);
  const double cells = static_cast<double>(words) * bits;
  const double measured = static_cast<double>(map.fault_count()) / cells;
  // Single map: allow generous statistical tolerance at low BER.
  if (ber >= 1e-4) {
    EXPECT_NEAR(measured / ber, 1.0, 0.25);
  } else {
    EXPECT_LE(measured, ber * 10 + 1e-5);
  }
}

INSTANTIATE_TEST_SUITE_P(BerRange, BerSweep,
                         ::testing::Values(1e-6, 1e-5, 1e-4, 1e-3, 1e-2,
                                           2e-2));

}  // namespace
}  // namespace ulpdream::mem
