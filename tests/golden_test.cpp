// Golden-value regression tests pinning the paper-facing tables:
//  - the Formula 2 / Sec. V extra-bits-per-word table for every EMT,
//  - the SECDED (extended Hamming(22,16)) codeword and syndrome tables,
//  - the Fig. 2 bit-significance ranking for the DWT application.
// These values are deterministic; any drift means a codec or experiment
// regression, not noise.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "ulpdream/apps/dwt_app.hpp"
#include "ulpdream/core/ecc_secded.hpp"
#include "ulpdream/core/factory.hpp"
#include "ulpdream/ecg/database.hpp"
#include "ulpdream/sim/bit_significance.hpp"

namespace ulpdream {
namespace {

TEST(GoldenTables, PaperExtraBitsPerWord) {
  // Paper Sec. V (Formula 2): none 0, DREAM 5, ECC SEC/DED 6 extra bits
  // per 16-bit word; the deep-voltage hybrid stacks both (11).
  struct Expected {
    const char* name;
    int payload_bits;
    int safe_bits;
    int extra_bits;
  };
  const Expected golden[] = {
      {"none", 16, 0, 0},
      {"dream", 16, 5, 5},
      {"ecc_secded", 22, 0, 6},
      {"dream_secded", 22, 5, 11},
  };
  for (const Expected& e : golden) {
    const auto emt = core::make_emt(e.name);
    EXPECT_EQ(emt->payload_bits(), e.payload_bits) << emt->name();
    EXPECT_EQ(emt->safe_bits(), e.safe_bits) << emt->name();
    EXPECT_EQ(emt->extra_bits(), e.extra_bits) << emt->name();
  }
}

// Every (data word -> 22-bit codeword) pair below was generated by the
// current encoder and cross-checked by hand against the extended
// Hamming(22,16) construction (data bits at the non-power-of-two Hamming
// positions, overall parity in payload bit 21). Example: data 0x0001 sits
// at Hamming position 3, covered by parity positions 1 and 2, and the
// three-bit codeword has odd parity -> 0x200007.
constexpr struct {
  std::uint16_t data;
  std::uint32_t codeword;
} kGoldenCodewords[] = {
    {0x0000u, 0x000000u}, {0x0001u, 0x200007u}, {0x8000u, 0x108009u},
    {0xFFFFu, 0x1FFFFEu}, {0xA5A5u, 0x345A2Fu}, {0x5A5Au, 0x2BA5D1u},
    {0x1234u, 0x02A3A1u},
};

TEST(GoldenTables, SecDedCodewords) {
  const core::EccSecDed ecc;
  for (const auto& g : kGoldenCodewords) {
    const auto s = static_cast<fixed::Sample>(g.data);
    EXPECT_EQ(ecc.encode_payload(s), g.codeword)
        << "data 0x" << std::hex << g.data;
  }
}

TEST(GoldenTables, SecDedDataPositionLayout) {
  // Data bit i lives at the i-th non-power-of-two Hamming position.
  constexpr std::array<int, 16> kDataPositions = {
      3, 5, 6, 7, 9, 10, 11, 12, 13, 14, 15, 17, 18, 19, 20, 21};
  const core::EccSecDed ecc;
  for (int i = 0; i < 16; ++i) {
    const auto s = static_cast<fixed::Sample>(std::uint16_t{1} << i);
    const std::uint32_t code = ecc.encode_payload(s);
    const int pos = kDataPositions[static_cast<std::size_t>(i)];
    EXPECT_EQ((code >> (pos - 1)) & 1u, 1u) << "data bit " << i;
  }
}

TEST(GoldenTables, SecDedSyndromeCorrectsEverySingleBitError) {
  // The syndrome table: flipping any one of the 22 payload bits of a valid
  // codeword must be pinpointed by the syndrome and fully corrected.
  const core::EccSecDed ecc;
  for (const auto& g : kGoldenCodewords) {
    for (int bit = 0; bit < core::EccSecDed::kPayloadBits; ++bit) {
      core::EccSecDed::Outcome outcome{};
      const fixed::Sample decoded =
          ecc.decode_ex(g.codeword ^ (1u << bit), outcome);
      EXPECT_EQ(outcome, core::EccSecDed::Outcome::kCorrected)
          << "data 0x" << std::hex << g.data << " bit " << std::dec << bit;
      EXPECT_EQ(static_cast<std::uint16_t>(decoded), g.data)
          << "data 0x" << std::hex << g.data << " bit " << std::dec << bit;
    }
  }
}

TEST(GoldenTables, SecDedDetectsEveryDoubleBitError) {
  const core::EccSecDed ecc;
  const core::EccSecDed::Outcome detected =
      core::EccSecDed::Outcome::kDetectedUncorrectable;
  for (const auto& g : {kGoldenCodewords[1], kGoldenCodewords[4]}) {
    for (int b1 = 0; b1 < core::EccSecDed::kPayloadBits; ++b1) {
      for (int b2 = b1 + 1; b2 < core::EccSecDed::kPayloadBits; ++b2) {
        core::EccSecDed::Outcome outcome{};
        (void)ecc.decode_ex(g.codeword ^ (1u << b1) ^ (1u << b2), outcome);
        EXPECT_EQ(outcome, detected)
            << "data 0x" << std::hex << g.data << " bits " << std::dec << b1
            << "," << b2;
      }
    }
  }
}

TEST(GoldenTables, SecDedCleanCodewordsDecodeClean) {
  const core::EccSecDed ecc;
  for (const auto& g : kGoldenCodewords) {
    core::EccSecDed::Outcome outcome{};
    const fixed::Sample decoded = ecc.decode_ex(g.codeword, outcome);
    EXPECT_EQ(outcome, core::EccSecDed::Outcome::kClean);
    EXPECT_EQ(static_cast<std::uint16_t>(decoded), g.data);
  }
}

// Fig. 2 golden ranking (DWT, default record seed 29). The stuck-bit
// experiment is fully deterministic; values are pinned with a loose
// tolerance only to absorb libm differences across toolchains.
TEST(GoldenTables, Fig2BitSignificanceRanking) {
  sim::ExperimentRunner runner;
  const apps::DwtApp app;
  const std::vector<ecg::Record> records = {ecg::make_default_record(29)};
  const sim::BitSignificanceResult res =
      sim::run_bit_significance(runner, app, records);

  EXPECT_NEAR(res.max_snr_db, 64.615408, 1e-3);

  constexpr std::array<std::array<double, 16>, 2> kGoldenSnrDb = {{
      // stuck-at-0
      {{51.677119, 45.803113, 39.890588, 33.889765, 28.065358, 22.012896,
        15.891757, 9.540952, 3.366657, -1.357049, -11.161912, -14.621950,
        -21.231060, -22.755382, -25.494117, -28.871133}},
      // stuck-at-1
      {{52.167943, 46.293177, 40.020171, 34.126309, 28.069987, 22.049389,
        16.041893, 10.353617, 2.823083, -0.939459, -3.803720, -7.744332,
        -13.309710, -19.170889, -24.929777, -30.326654}},
  }};
  for (std::size_t pol = 0; pol < 2; ++pol) {
    for (std::size_t bit = 0; bit < 16; ++bit) {
      EXPECT_NEAR(res.snr_db[pol][bit], kGoldenSnrDb[pol][bit], 1e-3)
          << "polarity " << pol << " bit " << bit;
    }
    // The paper's Fig. 2 shape: significance strictly increases toward the
    // MSB (SNR strictly decreases), for both stuck polarities.
    for (std::size_t bit = 1; bit < 16; ++bit) {
      EXPECT_LT(res.snr_db[pol][bit], res.snr_db[pol][bit - 1])
          << "polarity " << pol << " bit " << bit;
    }
  }
  // Stuck-at-1 faults are milder on the high magnitude bits
  // (negative-dominated samples hide them, paper Sec. III).
  EXPECT_GT(res.snr_db[1][14], res.snr_db[0][14]);

  EXPECT_EQ(res.tolerated_up_to[0], 1);
  EXPECT_EQ(res.tolerated_up_to[1], 2);
}

}  // namespace
}  // namespace ulpdream
