// Differential suite for the batched data path: the block APIs
// (Emt::encode_block/decode_block, FaultyMemory::read_block/write_block,
// ProtectedBuffer::load/store) must be bit-identical to the scalar
// word-at-a-time path — same decoded samples, same CodecCounters, same
// per-bank AccessStats — for every EMT kind x voltage x scrambler
// setting, and MemorySystem's decoded shadow must be bit-identical to a
// shadow-free per-word oracle under random operation sequences. Also pins
// the sparse FaultMap representation against an independently-built
// dense map.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
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
  EXPECT_EQ(a.bank_reads, b.bank_reads);
  EXPECT_EQ(a.bank_writes, b.bank_writes);
}

void expect_counters_eq(const core::CodecCounters& a,
                        const core::CodecCounters& b) {
  EXPECT_EQ(a.decodes, b.decodes);
  EXPECT_EQ(a.corrected_words, b.corrected_words);
  EXPECT_EQ(a.detected_uncorrectable, b.detected_uncorrectable);
}

struct DatapathCase {
  core::EmtKind kind;
  double voltage;
  std::uint64_t scrambler;
};

class BlockScalarIdentity : public ::testing::TestWithParam<DatapathCase> {};

TEST_P(BlockScalarIdentity, FullSweepMatchesScalarPath) {
  const DatapathCase param = GetParam();
  const auto emt = core::make_emt(param.kind);
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
  const auto emt = core::make_emt(param.kind);
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
  for (const core::EmtKind kind : core::extended_emt_kinds()) {
    for (const double v : {0.9, 0.8, 0.7, 0.6, 0.5}) {
      for (const std::uint64_t scrambler : {std::uint64_t{0},
                                            std::uint64_t{0xC0FFEE}}) {
        cases.push_back({kind, v, scrambler});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllEmtsVoltagesScramblers, BlockScalarIdentity,
    ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<DatapathCase>& info) {
      return std::string(core::emt_kind_name(info.param.kind)) + "_v" +
             std::to_string(static_cast<int>(info.param.voltage * 100)) +
             (info.param.scrambler == 0 ? "_plain" : "_scrambled");
    });

/// Every tier the build AND this CPU can run (active_tier() is already
/// clamped by both), lowest first. kScalar is always present.
std::vector<util::simd::Tier> runnable_tiers() {
  std::vector<util::simd::Tier> tiers{util::simd::Tier::kScalar};
  if (util::simd::active_tier() >= util::simd::Tier::kSse2) {
    tiers.push_back(util::simd::Tier::kSse2);
  }
  if (util::simd::active_tier() >= util::simd::Tier::kAvx2) {
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
  // CodecCounters and per-bank AccessStats alike. 0.5 V gives a dense
  // fault map, so the kernels' correction and detection lanes run too.
  constexpr std::size_t kBuf = 256;
  const fixed::SampleVec src = test_samples(kBuf);
  util::Xoshiro256 rng(13);
  const mem::FaultMap map = mem::FaultMap::random(
      kBuf, core::EccSecDed::kPayloadBits,
      mem::LogLinearBerModel().ber(0.5), rng);
  ASSERT_GT(map.entry_count(), 0u);

  const std::vector<util::simd::Tier> tiers = runnable_tiers();
  for (const core::EmtKind kind : core::extended_emt_kinds()) {
    const auto emt = core::make_emt(kind);
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
                       << core::emt_kind_name(kind) << " scrambler="
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
  PerWordOracle(const core::Emt& emt, std::size_t words, int banks)
      : emt(emt), data(words, emt.payload_bits(), banks) {
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
  return a.reads == b.reads && a.writes == b.writes &&
         a.bank_reads == b.bank_reads && a.bank_writes == b.bank_writes;
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
  // geometries: 2048 words over 16 banks, and 1300 words over 6 banks,
  // which takes the scrambler's general path and the per-word bank walk.
  // Whole-memory transfers cross the 1024-word staging chunk.
  struct Geometry {
    std::size_t words;
    int banks;
  };
  const ScalarOnlyEmt scalar_only;
  std::vector<std::unique_ptr<core::Emt>> owned;
  std::vector<const core::Emt*> emts;
  for (const std::string& name : core::emt_names()) {
    owned.push_back(core::make_emt(name));
    emts.push_back(owned.back().get());
  }
  emts.push_back(&scalar_only);
  const ClearForcedTier clear_tier;

  for (const Geometry geo : {Geometry{2048, 16}, Geometry{1300, 6}}) {
    const fixed::SampleVec samples = test_samples(geo.words);
    for (const double v : {0.5, 0.65, 0.9}) {
      const double ber = mem::LogLinearBerModel().ber(v);
      util::Xoshiro256 map_rng(static_cast<std::uint64_t>(v * 1000));
      const mem::FaultMap map_a =
          mem::FaultMap::random(geo.words, 22, ber, map_rng);
      const mem::FaultMap map_b =
          mem::FaultMap::random(geo.words, 22, ber, map_rng);
      const mem::FaultMap short_map(geo.words - 1, 22);
      for (const core::Emt* emt : emts) {
        for (const util::simd::Tier tier : runnable_tiers()) {
          SCOPED_TRACE(testing::Message()
                       << emt->name() << " words=" << geo.words << " v=" << v
                       << " tier=" << util::simd::tier_name(tier));
          util::simd::force_tier(tier);
          const std::uint64_t patch_base = fault_patch_total();
          PerWordOracle oracle(*emt, geo.words, geo.banks);
          std::uint64_t oracle_patched = 0;
          {
            core::MemorySystem sys(*emt, geo.words, geo.banks);
            auto buf = core::ProtectedBuffer::allocate(sys, geo.words);
            sys.attach_faults(&map_a);
            oracle.data.attach_faults(&map_a);

            util::Xoshiro256 rng(geo.words * 31 + emt->payload_bits());
            // The upper quarter stays unwritten for the first half.
            const std::size_t early_limit = geo.words * 3 / 4;
            constexpr int kOps = 160;
            for (int op = 0; op < kOps; ++op) {
              const std::size_t limit = op < kOps / 2 ? early_limit : geo.words;
              const std::size_t len = 1 + rng.bounded(300);
              const std::size_t addr = rng.bounded(geo.words - len + 1);
              const std::size_t wlen = std::min(len, limit);
              const std::size_t waddr = rng.bounded(limit - wlen + 1);
              // Fresh values each write: the sample stream, shifted.
              const std::size_t shift = rng.bounded(geo.words);
              fixed::SampleVec src(geo.words);
              for (std::size_t i = 0; i < geo.words; ++i) {
                src[i] = samples[(i + shift) % geo.words];
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
                  const std::size_t j = rng.bounded(geo.words);
                  same = same && buf.get(j) == oracle.read(j, 1)[0] &&
                         buf.get(i) == oracle.read(i, 1)[0];
                }
              } else if (kind == 7) {
                what = "sliding windows";
                const std::size_t w = std::min<std::size_t>(len, 40);
                const std::size_t a0 = rng.bounded(geo.words - w - 8 + 1);
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
                same = read_both(0, geo.words);
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

TEST(SparseFaultMap, PresenceBitmapChunkBoundaries) {
  // chunk_clean() drives the block read path's wide-copy-vs-lookup
  // decision, so its chunk edges must be exact: words 0 and 63 share
  // chunk 0, word 64 opens chunk 1, and a map whose word count is not a
  // multiple of 64 ends in a partial chunk.
  static_assert(mem::FaultMap::kChunkWords == 64);
  constexpr std::size_t kMapWords = 130;  // chunks 0, 1 and partial 2
  mem::FaultMap map(kMapWords, 16);
  for (const std::size_t word : {std::size_t{0}, std::size_t{63},
                                 std::size_t{64}, std::size_t{127},
                                 std::size_t{129}}) {
    map.edit(word) = {0x1, 0x1};
  }
  EXPECT_FALSE(map.chunk_clean(0));
  EXPECT_FALSE(map.chunk_clean(1));
  EXPECT_FALSE(map.chunk_clean(2));

  mem::FaultMap middle(kMapWords, 16);
  middle.edit(64) = {0x2, 0x0};
  middle.edit(127) = {0x2, 0x2};
  EXPECT_TRUE(middle.chunk_clean(0));
  EXPECT_FALSE(middle.chunk_clean(1));
  EXPECT_TRUE(middle.chunk_clean(2));

  // The unscrambled block read crosses every boundary: wide-copy runs for
  // clean chunks, per-word lookups for dirty ones, same answer as the
  // scalar accessor either way.
  mem::FaultyMemory block_mem(kMapWords, 16, 2);
  mem::FaultyMemory scalar_mem(kMapWords, 16, 2);
  for (auto* m : {&block_mem, &scalar_mem}) m->attach_faults(&middle);
  std::vector<std::uint32_t> pattern(kMapWords);
  for (std::size_t i = 0; i < kMapWords; ++i) {
    pattern[i] = static_cast<std::uint32_t>((i * 0x9E37u + 5) & 0xFFFFu);
  }
  block_mem.write_block(0, pattern);
  std::vector<std::uint32_t> block_out(kMapWords);
  block_mem.read_block(0, block_out);
  std::vector<std::uint32_t> scalar_out(kMapWords);
  for (std::size_t i = 0; i < kMapWords; ++i) {
    scalar_mem.write(i, pattern[i]);
    scalar_out[i] = scalar_mem.read(i);
  }
  EXPECT_EQ(block_out, scalar_out);
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
    mem::FaultyMemory scalar_mem(words, 16, 6);
    mem::FaultyMemory block_mem(words, 16, 6);
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
  mem::FaultyMemory scalar_mem(300, 22, 6);  // non-power-of-two geometry
  mem::FaultyMemory block_mem(300, 22, 6);
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
