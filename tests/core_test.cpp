#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>

#include "ulpdream/core/adaptive.hpp"
#include "ulpdream/core/factory.hpp"
#include "ulpdream/core/no_protection.hpp"
#include "ulpdream/core/protected_buffer.hpp"

namespace ulpdream::core {
namespace {

TEST(NoProtection, IdentityCodec) {
  const NoProtection none;
  EXPECT_EQ(none.extra_bits(), 0);
  for (int v = -32768; v <= 32767; v += 111) {
    const auto s = static_cast<fixed::Sample>(v);
    EXPECT_EQ(none.decode(none.encode_payload(s), 0), s);
  }
}

TEST(Factory, ProducesAllKinds) {
  for (const std::string& name : paper_emt_names()) {
    const auto emt = make_emt(name);
    ASSERT_NE(emt, nullptr);
    EXPECT_EQ(emt->name(), name);
  }
}

TEST(Factory, PaperExtraBitsTable) {
  EXPECT_EQ(make_emt("none")->extra_bits(), 0);
  EXPECT_EQ(make_emt("dream")->extra_bits(), 5);
  EXPECT_EQ(make_emt("ecc_secded")->extra_bits(), 6);
}

TEST(AdaptivePolicy, SelectsByRange) {
  const AdaptivePolicy policy = AdaptivePolicy::paper_dwt_policy();
  EXPECT_EQ(policy.select(0.88), "none");
  EXPECT_EQ(policy.select(0.75), "dream");
  EXPECT_EQ(policy.select(0.60), "ecc_secded");
}

TEST(AdaptivePolicy, AboveAllRangesIsNone) {
  const AdaptivePolicy policy = AdaptivePolicy::paper_dwt_policy();
  EXPECT_EQ(policy.select(1.0), "none");
}

TEST(AdaptivePolicy, BelowAllRangesUsesStrongest) {
  const AdaptivePolicy policy = AdaptivePolicy::paper_dwt_policy();
  EXPECT_EQ(policy.select(0.50), "ecc_secded");
}

TEST(AdaptivePolicy, RejectsOverlapsAndEmptyRanges) {
  AdaptivePolicy policy;
  policy.add_range(0.6, 0.8, "dream");
  EXPECT_THROW(policy.add_range(0.7, 0.9, "none"), std::invalid_argument);
  EXPECT_THROW(policy.add_range(0.5, 0.5, "none"), std::invalid_argument);
}

TEST(AdaptivePolicy, EmptyPolicyDefaultsToNone) {
  const AdaptivePolicy policy;
  EXPECT_EQ(policy.select(0.5), "none");
}

TEST(MemorySystem, SizesArraysForEmt) {
  const auto dream = make_emt("dream");
  MemorySystem system(*dream, 1024);
  EXPECT_EQ(system.data().words(), 1024u);
  EXPECT_EQ(system.data().width_bits(), 16);
  ASSERT_NE(system.safe(), nullptr);
  EXPECT_EQ(system.safe()->width_bits(), 5);

  const auto ecc = make_emt("ecc_secded");
  MemorySystem ecc_system(*ecc, 1024);
  EXPECT_EQ(ecc_system.data().width_bits(), 22);
  EXPECT_EQ(ecc_system.safe(), nullptr);
}

TEST(MemorySystem, AllocatorBumpsAndOverflows) {
  const NoProtection none;
  MemorySystem system(none, 100);
  EXPECT_EQ(system.allocate(60), 0u);
  EXPECT_EQ(system.allocate(40), 60u);
  EXPECT_THROW((void)system.allocate(1), std::bad_alloc);
  system.reset_allocator();
  EXPECT_EQ(system.allocate(100), 0u);
}

TEST(MemorySystem, AllocatorRejectsRequestsWhoseEndWraps) {
  // next_free + words must not wrap past SIZE_MAX: such a request would
  // hand out a window overlapping earlier buffers.
  const NoProtection none;
  MemorySystem system(none, 64);
  EXPECT_EQ(system.allocate(10), 0u);
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW((void)system.allocate(kMax - 5), std::bad_alloc);
  EXPECT_THROW((void)system.allocate(kMax), std::bad_alloc);
  EXPECT_EQ(system.peak_words_allocated(), 10u);
  EXPECT_EQ(system.allocate(8), 10u);
}

TEST(ProtectedBuffer, RoundTripThroughEachEmt) {
  for (const std::string& name : paper_emt_names()) {
    const auto emt = make_emt(name);
    MemorySystem system(*emt, 256);
    auto buf = ProtectedBuffer::allocate(system, 128);
    for (std::size_t i = 0; i < 128; ++i) {
      buf.set(i, static_cast<fixed::Sample>(
                     static_cast<int>(i) * 257 - 16384));
    }
    for (std::size_t i = 0; i < 128; ++i) {
      EXPECT_EQ(buf.get(i), static_cast<fixed::Sample>(
                                static_cast<int>(i) * 257 - 16384))
          << emt->name();
    }
  }
}

TEST(ProtectedBuffer, BoundsChecked) {
  const NoProtection none;
  MemorySystem system(none, 64);
  auto buf = ProtectedBuffer::allocate(system, 16);
  EXPECT_THROW((void)buf.get(16), std::out_of_range);
  EXPECT_THROW(buf.set(16, 0), std::out_of_range);
}

TEST(ProtectedBuffer, RejectsWindowsOutsideTheMemory) {
  const NoProtection none;
  MemorySystem system(none, 64);
  auto real = ProtectedBuffer::allocate(system, 64);
  real.set(0, 1234);
  // base + 1 would wrap to word 0 and read the real buffer's sample.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  EXPECT_THROW(ProtectedBuffer(system, kMax, 4), std::out_of_range);
  EXPECT_THROW(ProtectedBuffer(system, 65, 0), std::out_of_range);
  try {
    (void)ProtectedBuffer(system, 60, 10);
    ADD_FAILURE() << "a window past the end was accepted";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    for (const char* part : {"10 words", "base 60", "64-word"}) {
      EXPECT_NE(what.find(part), std::string::npos) << what;
    }
  }
  // Windows that end exactly at the last word are fine.
  EXPECT_EQ(ProtectedBuffer(system, 0, 64).get(0), 1234);
  EXPECT_EQ(ProtectedBuffer(system, 60, 4).size(), 4u);
  EXPECT_EQ(ProtectedBuffer(system, 64, 0).size(), 0u);
}

TEST(ProtectedBuffer, DreamSurvivesMsbFaultsEccDoesNot) {
  // The paper's core qualitative claim at very low voltage: multi-bit MSB
  // stuck faults defeat SEC/DED but not DREAM (for near-zero samples).
  mem::FaultMap map(256, 22);
  // Words 0..: three stuck bits in the MSB region of the data field.
  for (std::size_t w = 0; w < 256; ++w) {
    map.edit(w).mask = (1u << 15) | (1u << 14) | (1u << 13);
    map.edit(w).value = (1u << 15) | (1u << 13);
  }

  const auto dream = make_emt("dream");
  MemorySystem dream_sys(*dream, 256);
  dream_sys.attach_faults(&map);
  auto dream_buf = ProtectedBuffer::allocate(dream_sys, 64);
  // ECC's payload bit k holds Hamming position k+1, so the same physical
  // stuck cells corrupt different logical content — attach the same map.
  const auto ecc = make_emt("ecc_secded");
  MemorySystem ecc_sys(*ecc, 256);
  ecc_sys.attach_faults(&map);
  auto ecc_buf = ProtectedBuffer::allocate(ecc_sys, 64);

  int dream_errors = 0;
  int ecc_errors = 0;
  for (int i = 0; i < 64; ++i) {
    const auto s = static_cast<fixed::Sample>(i * 7 - 224);  // small values
    dream_buf.set(static_cast<std::size_t>(i), s);
    ecc_buf.set(static_cast<std::size_t>(i), s);
    if (dream_buf.get(static_cast<std::size_t>(i)) != s) ++dream_errors;
    if (ecc_buf.get(static_cast<std::size_t>(i)) != s) ++ecc_errors;
  }
  EXPECT_EQ(dream_errors, 0);
  EXPECT_GT(ecc_errors, 0);
}

TEST(ProtectedBuffer, CodecCountersAccumulateInSystem) {
  const auto ecc = make_emt("ecc_secded");
  MemorySystem system(*ecc, 64);
  mem::FaultMap map(64, 22);
  // Codeword bit 0 of encode(-1) is a parity bit that evaluates to 0;
  // stuck-at-1 guarantees an actual corruption for the counter to see.
  map.edit(0).mask = 0x1;
  map.edit(0).value = 0x1;
  system.attach_faults(&map);
  auto buf = ProtectedBuffer::allocate(system, 4);
  buf.set(0, -1);
  (void)buf.get(0);
  EXPECT_EQ(system.counters().decodes, 1u);
  EXPECT_EQ(system.counters().corrected_words, 1u);
}

TEST(MemorySystem, StatsResetClearsEverything) {
  const auto dream = make_emt("dream");
  MemorySystem system(*dream, 64);
  auto buf = ProtectedBuffer::allocate(system, 8);
  buf.set(0, 5);
  (void)buf.get(0);
  system.reset_stats();
  EXPECT_EQ(system.data().stats().total(), 0u);
  EXPECT_EQ(system.safe()->stats().total(), 0u);
  EXPECT_EQ(system.counters().decodes, 0u);
}

}  // namespace
}  // namespace ulpdream::core
