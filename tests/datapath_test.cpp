// Differential suite for the batched data path: the block APIs
// (Emt::encode_block/decode_block, FaultyMemory::read_block/write_block,
// ProtectedBuffer::load/store) must be bit-identical to the scalar
// word-at-a-time path — same decoded samples, same CodecCounters, same
// data and side AccessStats — for every EMT x voltage x scrambler
// setting, and MemorySystem's decoded shadow must be bit-identical to a
// shadow-free per-word oracle under random operation sequences. Also pins
// the sparse FaultMap representation against an independently-built
// dense map.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ulpdream/core/ecc_secded.hpp"
#include "ulpdream/core/factory.hpp"
#include "ulpdream/core/no_protection.hpp"
#include "ulpdream/core/protected_buffer.hpp"
#include "ulpdream/ecg/database.hpp"
#include "ulpdream/mem/ber_model.hpp"
#include "ulpdream/mem/fault_map.hpp"
#include "ulpdream/mem/memory.hpp"
#include "ulpdream/util/rng.hpp"
#include "ulpdream/util/simd.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace ulpdream {
namespace {

constexpr std::size_t kWords = 2048;

fixed::SampleVec test_samples(std::size_t n) {
  const ecg::Record record = ecg::make_default_record(3);
  fixed::SampleVec src(n);
  for (std::size_t i = 0; i < n; ++i) {
    src[i] = record.samples[i % record.samples.size()];
  }
  return src;
}

void expect_stats_eq(const mem::AccessStats& a, const mem::AccessStats& b) {
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
}

void expect_counters_eq(const core::CodecCounters& a,
                        const core::CodecCounters& b) {
  EXPECT_EQ(a.decodes, b.decodes);
  EXPECT_EQ(a.corrected_words, b.corrected_words);
  EXPECT_EQ(a.detected_uncorrectable, b.detected_uncorrectable);
}

struct DatapathCase {
  std::string emt;
  double voltage;
  std::uint64_t scrambler;
};

// gtest prints a parameter without a PrintTo as its raw bytes, here a
// std::string's heap pointer among them, and the ctest names carry that
// print: this keeps them the same from build to build.
void PrintTo(const DatapathCase& c, std::ostream* os) {
  *os << c.emt << " at " << c.voltage << " V, scrambler " << c.scrambler;
}

class BlockScalarIdentity : public ::testing::TestWithParam<DatapathCase> {};

TEST_P(BlockScalarIdentity, FullSweepMatchesScalarPath) {
  const DatapathCase param = GetParam();
  const auto emt = core::make_emt(param.emt);
  const fixed::SampleVec src = test_samples(kWords);

  util::Xoshiro256 rng(99);
  const double ber = mem::LogLinearBerModel().ber(param.voltage);
  const mem::FaultMap map =
      mem::FaultMap::random(kWords, core::EccSecDed::kPayloadBits, ber, rng);

  // Scalar reference: word-at-a-time write then read.
  core::MemorySystem scalar_sys(*emt, kWords);
  scalar_sys.attach_faults(&map);
  scalar_sys.set_scrambler(param.scrambler);
  auto scalar_buf = core::ProtectedBuffer::allocate(scalar_sys, kWords);
  fixed::SampleVec scalar_out(kWords);
  for (std::size_t i = 0; i < kWords; ++i) scalar_buf.set(i, src[i]);
  for (std::size_t i = 0; i < kWords; ++i) scalar_out[i] = scalar_buf.get(i);

  // Block path: one load, one store.
  core::MemorySystem block_sys(*emt, kWords);
  block_sys.attach_faults(&map);
  block_sys.set_scrambler(param.scrambler);
  auto block_buf = core::ProtectedBuffer::allocate(block_sys, kWords);
  fixed::SampleVec block_out(kWords);
  block_buf.load(0, std::span<const fixed::Sample>(src.data(), kWords));
  block_buf.store(0, std::span<fixed::Sample>(block_out.data(), kWords));

  EXPECT_EQ(scalar_out, block_out);
  expect_counters_eq(scalar_sys.counters(), block_sys.counters());
  expect_stats_eq(scalar_sys.data().stats(), block_sys.data().stats());
  ASSERT_EQ(scalar_sys.safe() != nullptr, block_sys.safe() != nullptr);
  if (scalar_sys.safe() != nullptr) {
    expect_stats_eq(scalar_sys.safe()->stats(), block_sys.safe()->stats());
  }
}

TEST_P(BlockScalarIdentity, OverrideMatchesBaseBlockLoop) {
  // The devirtualized encode_block/decode_block overrides must agree with
  // the Emt base implementation (a plain loop over the scalar virtuals),
  // including counter updates — qualified calls reach the base directly.
  const DatapathCase param = GetParam();
  const auto emt = core::make_emt(param.emt);
  const fixed::SampleVec src = test_samples(512);
  const std::size_t n = src.size();
  const bool has_safe = emt->safe_bits() > 0;

  std::vector<std::uint32_t> payload_base(n);
  std::vector<std::uint32_t> payload_override(n);
  std::vector<std::uint16_t> safe_base(has_safe ? n : 0);
  std::vector<std::uint16_t> safe_override(has_safe ? n : 0);
  emt->Emt::encode_block(std::span<const fixed::Sample>(src),
                         std::span<std::uint32_t>(payload_base),
                         std::span<std::uint16_t>(safe_base));
  emt->encode_block(std::span<const fixed::Sample>(src),
                    std::span<std::uint32_t>(payload_override),
                    std::span<std::uint16_t>(safe_override));
  EXPECT_EQ(payload_base, payload_override);
  EXPECT_EQ(safe_base, safe_override);

  // Corrupt a deterministic sprinkle of payload bits so the decode loops
  // exercise correction and detection.
  util::Xoshiro256 rng(7);
  for (std::size_t i = 0; i < n; i += 3) {
    payload_base[i] ^= 1u << rng.bounded(
        static_cast<std::uint64_t>(emt->payload_bits()));
    if (i % 9 == 0) {
      payload_base[i] ^= 1u << rng.bounded(
          static_cast<std::uint64_t>(emt->payload_bits()));
    }
  }
  payload_override = payload_base;

  fixed::SampleVec out_base(n);
  fixed::SampleVec out_override(n);
  std::vector<std::uint8_t> outcome_base(n);
  std::vector<std::uint8_t> outcome_override(n);
  emt->Emt::decode_block(std::span<const std::uint32_t>(payload_base),
                         std::span<const std::uint16_t>(safe_base),
                         std::span<fixed::Sample>(out_base),
                         std::span<std::uint8_t>(outcome_base));
  emt->decode_block(std::span<const std::uint32_t>(payload_override),
                    std::span<const std::uint16_t>(safe_override),
                    std::span<fixed::Sample>(out_override),
                    std::span<std::uint8_t>(outcome_override));
  EXPECT_EQ(out_base, out_override);
  EXPECT_EQ(outcome_base, outcome_override);
  // The corruption above must actually reach the outcome path.
  if (param.voltage == 0.5 && emt->name() != "none") {
    EXPECT_GT(std::count(outcome_base.begin(), outcome_base.end(),
                         core::kDecodeCorrected),
              0);
  }
}

std::vector<DatapathCase> all_cases() {
  std::vector<DatapathCase> cases;
  for (const std::string& emt : core::emt_names()) {
    for (const double v : {0.9, 0.8, 0.7, 0.6, 0.5}) {
      for (const std::uint64_t scrambler : {std::uint64_t{0},
                                            std::uint64_t{0xC0FFEE}}) {
        cases.push_back({emt, v, scrambler});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllEmtsVoltagesScramblers, BlockScalarIdentity,
    ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<DatapathCase>& info) {
      return info.param.emt + "_v" +
             std::to_string(static_cast<int>(info.param.voltage * 100)) +
             (info.param.scrambler == 0 ? "_plain" : "_scrambled");
    });

/// Every tier the build AND this CPU can run (active_tier() is already
/// clamped by both), lowest first. kScalar is always present.
std::vector<util::simd::Tier> runnable_tiers() {
  std::vector<util::simd::Tier> tiers{util::simd::Tier::kScalar};
  if (util::simd::active_tier() == util::simd::Tier::kAvx2) {
    tiers.push_back(util::simd::Tier::kAvx2);
  }
  return tiers;
}

TEST(SimdTiers, BlockSweepBitIdenticalAcrossTiersOffsetsAndTails) {
  // The SIMD kernels' full dispatch matrix: every compiled tier x EMT x
  // scrambler setting x unaligned window base x window length around the
  // vector widths (1..3x the 8/16-lane kernels, plus scalar-tail sizes).
  // The word-at-a-time accessors are the tier-independent reference; every
  // tier's block sweep must reproduce them bit-exactly — decoded samples,
  // CodecCounters and AccessStats alike. 0.5 V gives a dense fault map,
  // so the kernels' correction and detection lanes run too.
  constexpr std::size_t kBuf = 256;
  const fixed::SampleVec src = test_samples(kBuf);
  util::Xoshiro256 rng(13);
  const mem::FaultMap map = mem::FaultMap::random(
      kBuf, core::EccSecDed::kPayloadBits,
      mem::LogLinearBerModel().ber(0.5), rng);
  ASSERT_GT(map.entry_count(), 0u);

  const std::vector<util::simd::Tier> tiers = runnable_tiers();
  for (const std::string& name : core::emt_names()) {
    const auto emt = core::make_emt(name);
    for (const std::uint64_t scrambler :
         {std::uint64_t{0}, std::uint64_t{0xC0FFEE}}) {
      for (const std::size_t offset : {std::size_t{0}, std::size_t{1},
                                       std::size_t{3}, std::size_t{7},
                                       std::size_t{13}}) {
        for (const std::size_t len :
             {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{7},
              std::size_t{8}, std::size_t{9}, std::size_t{15},
              std::size_t{16}, std::size_t{17}, std::size_t{31},
              std::size_t{33}, std::size_t{48}}) {
          ASSERT_LE(offset + len, kBuf);
          SCOPED_TRACE(testing::Message()
                       << name << " scrambler="
                       << scrambler << " offset=" << offset
                       << " len=" << len);

          // Tier-independent reference: scalar word accessors.
          core::MemorySystem ref_sys(*emt, kBuf);
          ref_sys.attach_faults(&map);
          ref_sys.set_scrambler(scrambler);
          auto ref_buf = core::ProtectedBuffer::allocate(ref_sys, kBuf);
          fixed::SampleVec ref_out(len);
          for (std::size_t i = 0; i < len; ++i) {
            ref_buf.set(offset + i, src[offset + i]);
          }
          for (std::size_t i = 0; i < len; ++i) {
            ref_out[i] = ref_buf.get(offset + i);
          }

          for (const util::simd::Tier tier : tiers) {
            SCOPED_TRACE(testing::Message()
                         << "tier=" << util::simd::tier_name(tier));
            util::simd::force_tier(tier);
            core::MemorySystem sys(*emt, kBuf);
            sys.attach_faults(&map);
            sys.set_scrambler(scrambler);
            auto buf = core::ProtectedBuffer::allocate(sys, kBuf);
            fixed::SampleVec out(len);
            buf.load(offset,
                     std::span<const fixed::Sample>(src.data() + offset, len));
            buf.store(offset, std::span<fixed::Sample>(out.data(), len));
            util::simd::clear_forced_tier();

            EXPECT_EQ(ref_out, out);
            expect_counters_eq(ref_sys.counters(), sys.counters());
            expect_stats_eq(ref_sys.data().stats(), sys.data().stats());
            if (ref_sys.safe() != nullptr) {
              expect_stats_eq(ref_sys.safe()->stats(), sys.safe()->stats());
            }
          }
        }
      }
    }
  }
}

// --- decoded shadow vs the per-word path ---------------------------------

/// Overrides only the scalar virtuals, so its block codec is Emt's base
/// loop (the base-class outcome path). Payload: the sample plus one
/// parity bit per byte; side word: the top three sample bits, encoded
/// with junk above the 3-bit side width that the side memory masks off.
/// A decode can both correct (forced top bits) and detect (parity).
class ScalarOnlyEmt final : public core::Emt {
 public:
  [[nodiscard]] std::string name() const override { return "scalar_only"; }
  [[nodiscard]] int payload_bits() const override { return 18; }
  [[nodiscard]] int safe_bits() const override { return 3; }
  [[nodiscard]] std::uint32_t encode_payload(fixed::Sample s) const override {
    const auto u = static_cast<std::uint16_t>(s);
    return u | parity(u & 0xFFu) << 16 | parity(u >> 8) << 17;
  }
  [[nodiscard]] std::uint16_t encode_safe(fixed::Sample s) const override {
    return static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(s) >> 13) | 0xF0u);
  }
  [[nodiscard]] fixed::Sample decode(
      std::uint32_t payload, std::uint16_t safe,
      core::CodecCounters* counters = nullptr) const override {
    const auto data = static_cast<std::uint16_t>(payload);
    const auto fixed_word =
        static_cast<std::uint16_t>((data & 0x1FFFu) | (safe & 7u) << 13);
    const bool bad_parity =
        parity(data & 0xFFu) != ((payload >> 16) & 1u) ||
        parity(data >> 8) != ((payload >> 17) & 1u);
    if (counters != nullptr) {
      ++counters->decodes;
      if (fixed_word != data) ++counters->corrected_words;
      if (bad_parity) ++counters->detected_uncorrectable;
    }
    return static_cast<fixed::Sample>(fixed_word);
  }

 private:
  static std::uint32_t parity(std::uint32_t v) {
    return static_cast<std::uint32_t>(__builtin_parity(v));
  }
};

/// The per-word reference: a twin data/side memory pair receiving the
/// same writes, read with FaultyMemory::read + SafeMemory::read +
/// Emt::decode — no shadow anywhere.
struct PerWordOracle {
  PerWordOracle(const core::Emt& emt, std::size_t words)
      : emt(emt), data(words, emt.payload_bits()) {
    if (emt.safe_bits() > 0) safe.emplace(words, emt.safe_bits());
  }
  void write(std::size_t addr, std::span<const fixed::Sample> src) {
    for (std::size_t i = 0; i < src.size(); ++i) {
      data.write(addr + i, emt.encode_payload(src[i]));
      if (safe) safe->write(addr + i, emt.encode_safe(src[i]));
    }
  }
  fixed::SampleVec read(std::size_t addr, std::size_t n) {
    fixed::SampleVec out(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t payload = data.read(addr + i);
      const std::uint16_t side = safe ? safe->read(addr + i) : 0;
      out[i] = emt.decode(payload, side, &counters);
    }
    return out;
  }

  const core::Emt& emt;
  mem::FaultyMemory data;
  std::optional<mem::SafeMemory> safe;
  core::CodecCounters counters;
};

std::uint64_t fault_patch_total() {
  const auto m = util::telemetry::snapshot();
  const auto it = m.counters.find("mem.fault_patch_words");
  return it == m.counters.end() ? 0 : it->second;
}

bool stats_eq(const mem::AccessStats& a, const mem::AccessStats& b) {
  return a.reads == b.reads && a.writes == b.writes;
}

/// Everything a read replays must match the oracle's: codec counters,
/// data and side stats, and mem.fault_patch_words. The oracle's reads add
/// to that counter directly while the system only tallies until it is
/// destroyed, so the counter's delta is the oracle's share alone.
::testing::AssertionResult replay_agrees(const core::MemorySystem& sys,
                                         const PerWordOracle& oracle,
                                         std::uint64_t patch_base) {
  const core::CodecCounters& a = sys.counters();
  const core::CodecCounters& b = oracle.counters;
  if (a.decodes != b.decodes || a.corrected_words != b.corrected_words ||
      a.detected_uncorrectable != b.detected_uncorrectable) {
    return ::testing::AssertionFailure()
           << "CodecCounters (decodes/corrected/detected) " << a.decodes
           << "/" << a.corrected_words << "/" << a.detected_uncorrectable
           << " vs oracle " << b.decodes << "/" << b.corrected_words << "/"
           << b.detected_uncorrectable;
  }
  if (!stats_eq(sys.data().stats(), oracle.data.stats())) {
    return ::testing::AssertionFailure() << "data-array AccessStats differ";
  }
  if ((sys.safe() != nullptr) != oracle.safe.has_value() ||
      (sys.safe() != nullptr &&
       !stats_eq(sys.safe()->stats(), oracle.safe->stats()))) {
    return ::testing::AssertionFailure() << "side-array AccessStats differ";
  }
  const std::uint64_t oracle_patched = fault_patch_total() - patch_base;
  if (sys.tally().patched_words != oracle_patched) {
    return ::testing::AssertionFailure()
           << "mem.fault_patch_words " << sys.tally().patched_words
           << " vs oracle " << oracle_patched;
  }
  return ::testing::AssertionSuccess();
}

struct ClearForcedTier {
  ~ClearForcedTier() { util::simd::clear_forced_tier(); }
};

TEST(DecodedShadow, RandomOperationsMatchThePerWordPath) {
  // Seeded random mix of block and word accesses, overlapping windows,
  // overwrites, never-written words and mid-sequence attach_faults /
  // set_scrambler calls (one of them rejected), for every EMT (plus the
  // base-class outcome path), SIMD tier, a few voltages and two
  // geometries: 2048 words, and 1300 words, which takes the scrambler's
  // non-power-of-two path. Word sets decode with Emt::decode and block
  // writes with Emt::decode_block, so the oracle also pins that the two
  // agree. Whole-memory transfers cross the 1024-word staging chunk.
  const ScalarOnlyEmt scalar_only;
  std::vector<std::unique_ptr<core::Emt>> owned;
  std::vector<const core::Emt*> emts;
  for (const std::string& name : core::emt_names()) {
    owned.push_back(core::make_emt(name));
    emts.push_back(owned.back().get());
  }
  emts.push_back(&scalar_only);
  const ClearForcedTier clear_tier;

  for (const std::size_t words : {std::size_t{2048}, std::size_t{1300}}) {
    const fixed::SampleVec samples = test_samples(words);
    for (const double v : {0.5, 0.65, 0.9}) {
      const double ber = mem::LogLinearBerModel().ber(v);
      util::Xoshiro256 map_rng(static_cast<std::uint64_t>(v * 1000));
      const mem::FaultMap map_a =
          mem::FaultMap::random(words, 22, ber, map_rng);
      const mem::FaultMap map_b =
          mem::FaultMap::random(words, 22, ber, map_rng);
      const mem::FaultMap short_map(words - 1, 22);
      for (const core::Emt* emt : emts) {
        for (const util::simd::Tier tier : runnable_tiers()) {
          SCOPED_TRACE(testing::Message()
                       << emt->name() << " words=" << words << " v=" << v
                       << " tier=" << util::simd::tier_name(tier));
          util::simd::force_tier(tier);
          const std::uint64_t patch_base = fault_patch_total();
          PerWordOracle oracle(*emt, words);
          std::uint64_t oracle_patched = 0;
          {
            core::MemorySystem sys(*emt, words);
            auto buf = core::ProtectedBuffer::allocate(sys, words);
            sys.attach_faults(&map_a);
            oracle.data.attach_faults(&map_a);

            util::Xoshiro256 rng(words * 31 + emt->payload_bits());
            // The upper quarter stays unwritten for the first half.
            const std::size_t early_limit = words * 3 / 4;
            constexpr int kOps = 160;
            for (int op = 0; op < kOps; ++op) {
              const std::size_t limit = op < kOps / 2 ? early_limit : words;
              const std::size_t len = 1 + rng.bounded(300);
              const std::size_t addr = rng.bounded(words - len + 1);
              const std::size_t wlen = std::min(len, limit);
              const std::size_t waddr = rng.bounded(limit - wlen + 1);
              // Fresh values each write: the sample stream, shifted.
              const std::size_t shift = rng.bounded(words);
              fixed::SampleVec src(words);
              for (std::size_t i = 0; i < words; ++i) {
                src[i] = samples[(i + shift) % words];
              }
              const auto read_both = [&](std::size_t a, std::size_t n) {
                fixed::SampleVec got(n);
                buf.store(a, std::span<fixed::Sample>(got.data(), n));
                return got == oracle.read(a, n);
              };
              const std::uint64_t kind = rng.bounded(12);
              bool same = true;
              std::string what;
              if (kind <= 2) {
                what = "block write";
                buf.load(waddr, std::span<const fixed::Sample>(src.data(), wlen));
                oracle.write(waddr, std::span<const fixed::Sample>(src.data(), wlen));
              } else if (kind <= 5) {
                what = "block read (repeated)";
                same = read_both(addr, len) && read_both(addr, len);
              } else if (kind == 6) {
                what = "word set/get";
                for (int k = 0; k < 8; ++k) {
                  const std::size_t i = rng.bounded(limit);
                  buf.set(i, src[k]);
                  oracle.write(i, std::span<const fixed::Sample>(&src[k], 1));
                  const std::size_t j = rng.bounded(words);
                  same = same && buf.get(j) == oracle.read(j, 1)[0] &&
                         buf.get(i) == oracle.read(i, 1)[0];
                }
              } else if (kind == 7) {
                what = "sliding windows";
                const std::size_t w = std::min<std::size_t>(len, 40);
                const std::size_t a0 = rng.bounded(words - w - 8 + 1);
                for (std::size_t k = 0; k < 8; ++k) {
                  same = same && read_both(a0 + k, w);
                }
              } else if (kind == 8) {
                what = "overwrite before read";
                buf.load(waddr, std::span<const fixed::Sample>(src.data(), wlen));
                oracle.write(waddr, std::span<const fixed::Sample>(src.data(), wlen));
                buf.load(waddr, std::span<const fixed::Sample>(
                                    src.data() + 1, wlen));
                oracle.write(waddr, std::span<const fixed::Sample>(
                                        src.data() + 1, wlen));
                same = read_both(waddr, wlen);
              } else if (kind == 9) {
                what = "whole-memory write + read";
                buf.load(0, std::span<const fixed::Sample>(src.data(), limit));
                oracle.write(0, std::span<const fixed::Sample>(src.data(), limit));
                same = read_both(0, words);
              } else if (kind == 10) {
                const std::uint64_t pick = rng.bounded(3);
                const mem::FaultMap* map =
                    pick == 0 ? &map_a : pick == 1 ? &map_b : nullptr;
                what = "attach_faults";
                sys.attach_faults(map);
                oracle.data.attach_faults(map);
                EXPECT_THROW(sys.attach_faults(&short_map),
                             std::invalid_argument);
                EXPECT_THROW(oracle.data.attach_faults(&short_map),
                             std::invalid_argument);
                same = read_both(addr, len);
              } else {
                const std::uint64_t seed =
                    rng.bounded(4) == 0 ? 0 : 1 + rng.bounded(1u << 20);
                what = "set_scrambler";
                sys.set_scrambler(seed);
                oracle.data.set_scrambler(seed);
                same = read_both(addr, len);
              }
              ASSERT_TRUE(same) << "samples differ after op " << op << " ("
                                << what << ")";
              ASSERT_TRUE(replay_agrees(sys, oracle, patch_base))
                  << "after op " << op << " (" << what << ")";
            }
            oracle_patched = fault_patch_total() - patch_base;
            EXPECT_EQ(sys.tally().patched_words, oracle_patched);
          }
          // The destroyed system has added its own tally once.
          EXPECT_EQ(fault_patch_total() - patch_base, 2 * oracle_patched);
        }
      }
    }
  }
}

/// Checks the unscrambled block reads of [first, first + n) against the
/// per-word accessors: peek_block()'s bits, patched flags and hit count
/// against peek_word(), and read_block()'s bits and mem.fault_patch_words
/// against read(). `memory` must hold no scrambler.
::testing::AssertionResult window_matches_word_reads(
    const mem::FaultyMemory& memory, std::size_t first, std::size_t n) {
  std::vector<std::uint32_t> word_bits(n);
  std::vector<std::uint8_t> word_flags(n);
  std::size_t word_hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bool patched = false;
    word_bits[i] = memory.peek_word(first + i, patched);
    word_flags[i] = patched ? 1 : 0;
    word_hits += patched ? 1 : 0;
  }
  std::vector<std::uint32_t> bits(n);
  std::vector<std::uint8_t> flags(n, 0xAA);  // peek_block writes each flag
  const std::size_t hits = memory.peek_block(first, bits, flags);
  if (bits != word_bits) {
    return ::testing::AssertionFailure() << "peek_block bits differ";
  }
  if (flags != word_flags) {
    return ::testing::AssertionFailure() << "peek_block patched flags differ";
  }
  if (hits != word_hits) {
    return ::testing::AssertionFailure()
           << "peek_block counts " << hits << " patched words, peek_word "
           << word_hits;
  }
  // A span-free peek returns the same bits and count.
  std::fill(bits.begin(), bits.end(), 0u);
  if (memory.peek_block(first, bits, {}) != word_hits || bits != word_bits) {
    return ::testing::AssertionFailure() << "flag-free peek_block differs";
  }

  const std::uint64_t base = fault_patch_total();
  for (std::size_t i = 0; i < n; ++i) {
    if (memory.read(first + i) != word_bits[i]) {
      return ::testing::AssertionFailure()
             << "read() of word " << first + i << " differs from peek_word";
    }
  }
  const std::uint64_t word_patched = fault_patch_total() - base;
  std::fill(bits.begin(), bits.end(), 0u);
  memory.read_block(first, bits);
  const std::uint64_t block_patched = fault_patch_total() - base - word_patched;
  if (bits != word_bits) {
    return ::testing::AssertionFailure() << "read_block bits differ";
  }
  if (block_patched != word_patched || word_patched != word_hits) {
    return ::testing::AssertionFailure()
           << "mem.fault_patch_words: read_block adds " << block_patched
           << ", read() " << word_patched << ", patched words " << word_hits;
  }
  return ::testing::AssertionSuccess();
}

/// A memory of `words` words of `width` bits holding a fixed pattern.
mem::FaultyMemory patterned_memory(std::size_t words, int width) {
  mem::FaultyMemory memory(words, width);
  std::vector<std::uint32_t> pattern(words);
  for (std::size_t i = 0; i < words; ++i) {
    pattern[i] = static_cast<std::uint32_t>(i * 0x9E3779B1u + 5);
  }
  memory.write_block(0, pattern);
  return memory;
}

TEST(SparseFaultMap, EntryWalkChunkBoundaries) {
  // entries() locates a window's entries from the chunk offsets and
  // searches only the window's first and last chunks, so its chunk edges
  // must be exact: words 0 and 63 share chunk 0, word 64 opens chunk 1,
  // and a map whose word count is not a multiple of 64 ends in a partial
  // chunk. Every window between those edges must yield exactly the words
  // lookup() finds there, in order, with their faults.
  static_assert(mem::FaultMap::kChunkWords == 64);
  constexpr std::size_t kMapWords = 130;  // chunks 0, 1 and partial 2
  mem::FaultMap map(kMapWords, 16);
  for (const std::size_t word : {std::size_t{0}, std::size_t{63},
                                 std::size_t{64}, std::size_t{127},
                                 std::size_t{129}}) {
    map.edit(word) = {0x1, 0x1};
  }
  mem::FaultMap middle(kMapWords, 16);
  middle.edit(64) = {0x2, 0x0};
  middle.edit(127) = {0x2, 0x2};

  const auto words_of = [](const mem::FaultMap::EntryRange& r) {
    return std::vector<std::uint32_t>(r.words.begin(), r.words.end());
  };
  using Words = std::vector<std::uint32_t>;
  EXPECT_EQ(words_of(map.entries(0, 64)), (Words{0, 63}));
  EXPECT_EQ(words_of(map.entries(64, 64)), (Words{64, 127}));
  EXPECT_EQ(words_of(map.entries(128, 2)), (Words{129}));
  EXPECT_EQ(words_of(map.entries(63, 2)), (Words{63, 64}));
  EXPECT_EQ(words_of(map.entries(1, 62)), Words{});
  EXPECT_EQ(words_of(middle.entries(0, 64)), Words{});
  EXPECT_EQ(words_of(middle.entries(64, 64)), (Words{64, 127}));
  EXPECT_EQ(words_of(middle.entries(128, 2)), Words{});
  // Windows are clamped to words(); past it there is nothing.
  EXPECT_EQ(words_of(map.entries(120, 1000)), (Words{127, 129}));
  EXPECT_EQ(words_of(map.entries(0, SIZE_MAX)),
            (Words{0, 63, 64, 127, 129}));
  EXPECT_TRUE(map.entries(kMapWords, 4).words.empty());
  EXPECT_TRUE(map.entries(5, 0).words.empty());

  constexpr std::size_t kEdges[] = {0, 1, 62, 63, 64, 65, 127, 128, 129, 130};
  for (const mem::FaultMap* m : {&map, &middle}) {
    for (const std::size_t first : kEdges) {
      for (const std::size_t end : kEdges) {
        if (end < first) continue;
        SCOPED_TRACE(testing::Message() << "window [" << first << ", " << end
                                        << ") of map "
                                        << (m == &map ? "map" : "middle"));
        Words expected;
        std::vector<const mem::WordFaults*> expected_faults;
        for (std::size_t w = first; w < end; ++w) {
          if (const mem::WordFaults* f = m->lookup(w)) {
            expected.push_back(static_cast<std::uint32_t>(w));
            expected_faults.push_back(f);
          }
        }
        const mem::FaultMap::EntryRange range = m->entries(first, end - first);
        ASSERT_EQ(range.faults.size(), range.words.size());
        ASSERT_EQ(words_of(range), expected);
        for (std::size_t k = 0; k < range.faults.size(); ++k) {
          // The same entry lookup() returns, not a copy.
          EXPECT_EQ(&range.faults[k], expected_faults[k]);
        }
      }
    }
  }

  // The unscrambled block read crosses every boundary, same answer as the
  // scalar accessors either way.
  for (const mem::FaultMap* m : {&map, &middle}) {
    mem::FaultyMemory memory = patterned_memory(kMapWords, 16);
    memory.attach_faults(m);
    for (const std::size_t first : kEdges) {
      for (const std::size_t end : kEdges) {
        if (end < first) continue;
        EXPECT_TRUE(window_matches_word_reads(memory, first, end - first))
            << "window [" << first << ", " << end << ")";
      }
    }
  }
}

TEST(BlockMemory, UnscrambledWindowsMatchWordReads) {
  // The unscrambled block read copies a window and patches it from the
  // map's entries there; the word accessors look each word up. Both must
  // give the same bits, patched flags and patch counts on random maps at
  // every paper voltage, whose densities run from every chunk faulty
  // (0.50 V) to an empty map, over windows that start and end on chunk
  // edges and in the partial last chunk.
  constexpr std::size_t kMemWords = 1000;  // 15 chunks + 40 words
  constexpr int kBits = core::EccSecDed::kPayloadBits;
  constexpr std::size_t kStarts[] = {0, 1, 63, 64, 65, 127, 128, 500, 959,
                                     960, 999, 1000};
  constexpr std::size_t kLengths[] = {0, 1, 2, 63, 64, 65, 128, 300, 1000};
  const mem::LogLinearBerModel model;
  util::Xoshiro256 rng(1606);
  std::size_t densest = 0;
  for (int centivolts = 50; centivolts <= 90; centivolts += 5) {
    const double v = centivolts / 100.0;
    SCOPED_TRACE(testing::Message() << v << " V");
    const mem::FaultMap map =
        mem::FaultMap::random(kMemWords, kBits, model.ber(v), rng);
    densest = std::max(densest, map.entry_count());
    mem::FaultyMemory memory = patterned_memory(kMemWords, kBits);
    memory.attach_faults(&map);
    for (const std::size_t first : kStarts) {
      for (const std::size_t n : kLengths) {
        const std::size_t len = std::min(n, kMemWords - first);
        ASSERT_TRUE(window_matches_word_reads(memory, first, len))
            << "window [" << first << ", " << first + len << ")";
      }
    }
    // A window of width 16 reads a 22-bit map: the mask drops the
    // high stuck cells exactly as the word path does.
    mem::FaultyMemory narrow = patterned_memory(kMemWords, 16);
    narrow.attach_faults(&map);
    ASSERT_TRUE(window_matches_word_reads(narrow, 0, kMemWords));
  }
  EXPECT_GT(densest, kMemWords / 4);  // 0.50 V: ~a third of the words

  // edit() maps: entries on chunk edges and in the partial last chunk,
  // plus a zero-mask entry, which changes no bit but still counts as
  // patched (lookup() finds it).
  constexpr std::size_t kMapWords = 130;
  mem::FaultMap map(kMapWords, 16);
  for (const std::size_t word : {std::size_t{0}, std::size_t{63},
                                 std::size_t{64}, std::size_t{127},
                                 std::size_t{129}}) {
    map.edit(word) = {0x8001, 0x0001};
  }
  (void)map.edit(100);  // zero mask
  mem::FaultyMemory memory = patterned_memory(kMapWords, 16);
  memory.attach_faults(&map);
  constexpr std::size_t kEdges[] = {0, 63, 64, 127, 128, 129, 130};
  for (const std::size_t first : kEdges) {
    for (const std::size_t end : kEdges) {
      if (end < first) continue;
      EXPECT_TRUE(window_matches_word_reads(memory, first, end - first))
          << "window [" << first << ", " << end << ")";
    }
  }

  // An empty window, a window with no entry, and the zero-mask entry.
  std::vector<std::uint8_t> flags(26);
  std::vector<std::uint32_t> bits(26);
  EXPECT_EQ(memory.peek_block(64, std::span<std::uint32_t>(),
                              std::span<std::uint8_t>()),
            0u);
  EXPECT_EQ(memory.peek_block(1, bits, flags), 0u);  // words 1..26
  EXPECT_EQ(std::count(flags.begin(), flags.end(), 1), 0);
  EXPECT_EQ(memory.peek_block(90, bits, flags), 1u);  // words 90..115
  EXPECT_EQ(flags[10], 1);
  EXPECT_EQ(std::count(flags.begin(), flags.end(), 1), 1);
  bool patched = false;
  EXPECT_EQ(bits[10], memory.peek_word(100, patched));
  EXPECT_TRUE(patched);
  EXPECT_TRUE(window_matches_word_reads(memory, 90, 26));
}

TEST(BlockMemory, SixteenBitOverloadsMatchTheWideOnes) {
  // The staging-free raw-sample write: the u16 write_block overload must
  // store what the u32 one stores, word for word, with the same stats.
  constexpr std::size_t kMemWords = 128;
  util::Xoshiro256 rng(21);
  const mem::FaultMap map = mem::FaultMap::random(kMemWords, 16, 5e-3, rng);
  for (const std::uint64_t scrambler :
       {std::uint64_t{0}, std::uint64_t{0xC0FFEE}}) {
    SCOPED_TRACE(testing::Message() << "scrambler=" << scrambler);
    mem::FaultyMemory wide(kMemWords, 16);
    mem::FaultyMemory narrow(kMemWords, 16);
    for (auto* m : {&wide, &narrow}) {
      m->attach_faults(&map);
      m->set_scrambler(scrambler);
    }
    std::vector<std::uint32_t> src32(kMemWords);
    std::vector<std::uint16_t> src16(kMemWords);
    for (std::size_t i = 0; i < kMemWords; ++i) {
      src16[i] = static_cast<std::uint16_t>(i * 40503u + 7);
      src32[i] = src16[i];
    }
    wide.write_block(0, src32);
    narrow.write_block(0, std::span<const std::uint16_t>(src16));

    std::vector<std::uint32_t> out_wide(kMemWords);
    std::vector<std::uint32_t> out_narrow(kMemWords);
    wide.read_block(0, out_wide);
    narrow.read_block(0, out_narrow);
    EXPECT_EQ(out_wide, out_narrow);
    expect_stats_eq(wide.stats(), narrow.stats());
  }

  // Writes zero-extend, so any width accepts the narrow source.
  mem::FaultyMemory too_wide(16, 22);
  std::vector<std::uint16_t> buf(16);
  EXPECT_NO_THROW(
      too_wide.write_block(0, std::span<const std::uint16_t>(buf)));
}

TEST(BlockMemory, ScramblerIsAPermutationOnEveryGeometry) {
  // Every logical word must own a physical row: with no faults attached, a
  // distinct value written to each word reads back unchanged, on the word
  // accessors and the block path alike. Word counts that are not powers of
  // two are the hard case: an affine map taken mod 2^64 and then mod the
  // word count is no permutation there (175 of 300 rows at seed 1234).
  const std::pair<std::size_t, std::uint64_t> cases[] = {
      {300, 1234}, {100, 77}, {1000, 0xDA7A9A7Bu}, {6, 5},
      {97, 3},     {2, 9},    {1, 11},           {1536, 0xC0FFEE}};
  for (const auto& [words, seed] : cases) {
    SCOPED_TRACE(testing::Message() << "words=" << words << " seed=" << seed);
    mem::FaultyMemory scalar_mem(words, 16);
    mem::FaultyMemory block_mem(words, 16);
    scalar_mem.set_scrambler(seed);
    block_mem.set_scrambler(seed);
    std::vector<std::uint32_t> src(words);
    for (std::size_t i = 0; i < words; ++i) {
      src[i] = static_cast<std::uint32_t>(i + 1);
      scalar_mem.write(i, src[i]);
    }
    block_mem.write_block(0, src);
    std::vector<std::uint32_t> block_out(words);
    block_mem.read_block(0, block_out);
    EXPECT_EQ(block_out, src);
    for (std::size_t i = 0; i < words; ++i) {
      ASSERT_EQ(scalar_mem.read(i), src[i]) << "logical word " << i;
    }
    EXPECT_THROW((void)scalar_mem.read(words), std::out_of_range);
  }
}

TEST(BlockMemory, ReadWriteBlockMatchScalarAccessors) {
  mem::FaultyMemory scalar_mem(300, 22);  // non-power-of-two geometry
  mem::FaultyMemory block_mem(300, 22);
  mem::FaultMap map(300, 22);
  map.edit(7) = {0x3, 0x1};
  map.edit(131) = {1u << 21, 1u << 21};
  for (auto* m : {&scalar_mem, &block_mem}) {
    m->attach_faults(&map);
    m->set_scrambler(1234);
  }

  std::vector<std::uint32_t> src(300);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::uint32_t>(0x5A5A5A5Au + i * 2654435761u);
  }
  for (std::size_t i = 0; i < src.size(); ++i) scalar_mem.write(i, src[i]);
  block_mem.write_block(0, src);

  std::vector<std::uint32_t> scalar_out(src.size());
  std::vector<std::uint32_t> block_out(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    scalar_out[i] = scalar_mem.read(i);
  }
  block_mem.read_block(0, block_out);

  EXPECT_EQ(scalar_out, block_out);
  expect_stats_eq(scalar_mem.stats(), block_mem.stats());
}

TEST(BlockMemory, BlockRangeChecks) {
  mem::FaultyMemory memory(64, 16);
  std::vector<std::uint32_t> buf(16);
  EXPECT_THROW(memory.read_block(60, buf), std::out_of_range);
  EXPECT_THROW(memory.write_block(
                   49, std::span<const std::uint32_t>(buf.data(), 16)),
               std::out_of_range);
  EXPECT_NO_THROW(memory.read_block(48, buf));

  mem::SafeMemory side(32, 5);
  std::vector<std::uint16_t> sbuf(8);
  EXPECT_THROW(side.read_block(25, sbuf), std::out_of_range);
  EXPECT_NO_THROW(side.read_block(24, sbuf));
}

TEST(BlockMemory, ProtectedBufferBlockRangeChecks) {
  core::NoProtection none;
  core::MemorySystem system(none, 128);
  auto buf = core::ProtectedBuffer::allocate(system, 64);
  fixed::SampleVec window(32);
  EXPECT_THROW(buf.load(40, std::span<const fixed::Sample>(window.data(), 32)),
               std::out_of_range);
  EXPECT_THROW(buf.store(64, std::span<fixed::Sample>(window.data(), 1)),
               std::out_of_range);
  EXPECT_NO_THROW(
      buf.load(32, std::span<const fixed::Sample>(window.data(), 32)));
  EXPECT_NO_THROW(buf.store(0, std::span<fixed::Sample>(window.data(), 32)));
}

TEST(SparseFaultMap, MatchesDenseReferenceOnRandomMaps) {
  // Build the same map twice: sparsely via FaultMap and densely in a plain
  // word-indexed array, from one shared random cell list. at() (plain
  // binary search) and lookup() (coarse bitmap + chunk scan) must both
  // agree with the dense reference for every word.
  constexpr std::size_t kMapWords = 4096;
  constexpr int kBits = 22;
  util::Xoshiro256 rng(42);

  mem::FaultMap sparse(kMapWords, kBits);
  std::vector<mem::WordFaults> dense(kMapWords);
  for (int fault = 0; fault < 500; ++fault) {
    const auto word = static_cast<std::size_t>(rng.bounded(kMapWords));
    const auto bit = static_cast<int>(rng.bounded(kBits));
    const bool value = rng.bernoulli(0.5);
    const std::uint32_t bitmask = 1u << bit;
    for (auto* wf : {&sparse.edit(word), &dense[word]}) {
      wf->mask |= bitmask;
      if (value) {
        wf->value |= bitmask;
      } else {
        wf->value &= ~bitmask;
      }
    }
  }

  std::size_t dense_faulty_words = 0;
  std::size_t dense_fault_count = 0;
  for (std::size_t w = 0; w < kMapWords; ++w) {
    EXPECT_EQ(sparse.at(w).mask, dense[w].mask) << "word " << w;
    EXPECT_EQ(sparse.at(w).value, dense[w].value) << "word " << w;
    const mem::WordFaults* hot = sparse.lookup(w);
    if (dense[w].mask == 0 && hot != nullptr) {
      // An inserted-then-clean entry is allowed; it must act clean.
      EXPECT_EQ(hot->mask, 0u);
    }
    if (dense[w].mask != 0) {
      ASSERT_NE(hot, nullptr) << "word " << w;
      EXPECT_EQ(hot->mask, dense[w].mask);
      EXPECT_EQ(hot->value, dense[w].value);
      ++dense_faulty_words;
    }
    dense_fault_count +=
        static_cast<std::size_t>(__builtin_popcount(dense[w].mask));
  }
  EXPECT_EQ(sparse.fault_count(), dense_fault_count);
  EXPECT_GE(sparse.entry_count(), dense_faulty_words);
}

TEST(SparseFaultMap, RandomMapLookupAgreesWithAt) {
  util::Xoshiro256 rng(11);
  const mem::FaultMap map = mem::FaultMap::random(8192, 22, 2e-3, rng);
  std::size_t faulty = 0;
  for (std::size_t w = 0; w < map.words(); ++w) {
    const mem::WordFaults* hot = map.lookup(w);
    const mem::WordFaults& ref = map.at(w);
    if (ref.mask == 0) {
      EXPECT_TRUE(hot == nullptr || hot->mask == 0);
    } else {
      ASSERT_NE(hot, nullptr);
      EXPECT_EQ(hot->mask, ref.mask);
      EXPECT_EQ(hot->value, ref.value);
      ++faulty;
    }
  }
  EXPECT_GT(faulty, 0u);
  // Sparse storage: entries track faulty words, not the geometry.
  EXPECT_EQ(map.entry_count(), faulty);
  EXPECT_EQ(map.lookup(map.words()), nullptr);  // out of range -> clean
}

TEST(SparseFaultMap, MemoryScalesWithFaultCountNotGeometry) {
  util::Xoshiro256 rng(5);
  // 0.8 V-class BER on the full 32 kB geometry: a handful of faults.
  const mem::FaultMap map = mem::FaultMap::random(
      mem::MemoryGeometry::kWords16, 22, 1e-4, rng);
  EXPECT_LT(map.entry_count(), mem::MemoryGeometry::kWords16 / 100);
  EXPECT_EQ(map.words(), mem::MemoryGeometry::kWords16);
}

TEST(AttachFaults, ValidatesGeometryAndKeepsPreviousMapOnMismatch) {
  mem::FaultyMemory memory(128, 22);
  const mem::FaultMap good(128, 22);
  EXPECT_NO_THROW(memory.attach_faults(&good));

  const mem::FaultMap short_map(127, 22);
  EXPECT_THROW(memory.attach_faults(&short_map), std::invalid_argument);
  const mem::FaultMap narrow_map(128, 21);
  EXPECT_THROW(memory.attach_faults(&narrow_map), std::invalid_argument);

  // Covering (larger) maps are fine, and nullptr clears.
  const mem::FaultMap big(256, 32);
  EXPECT_NO_THROW(memory.attach_faults(&big));
  EXPECT_NO_THROW(memory.attach_faults(nullptr));
}

}  // namespace
}  // namespace ulpdream
