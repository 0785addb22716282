#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>

#include "ulpdream/apps/app.hpp"
#include "ulpdream/apps/cs_app.hpp"
#include "ulpdream/apps/delineation_app.hpp"
#include "ulpdream/apps/dwt_app.hpp"
#include "ulpdream/apps/matrix_filter_app.hpp"
#include "ulpdream/apps/morph_filter_app.hpp"
#include "ulpdream/core/factory.hpp"
#include "ulpdream/core/no_protection.hpp"
#include "ulpdream/ecg/database.hpp"
#include "ulpdream/mem/ber_model.hpp"
#include "ulpdream/metrics/quality.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace ulpdream::apps {
namespace {

const ecg::Record& test_record() {
  static const ecg::Record rec = ecg::make_default_record(17);
  return rec;
}

core::MemorySystem make_clean_system() {
  static const core::NoProtection none;
  return core::MemorySystem(none);
}

TEST(AppFactory, ProducesAllFivePaperApps) {
  EXPECT_EQ(all_app_kinds().size(), 5u);
  EXPECT_EQ(paper_app_names().size(), 5u);
  for (const std::string& name : paper_app_names()) {
    const auto app = make_app(name);
    ASSERT_NE(app, nullptr);
    EXPECT_EQ(app->name(), name);
  }
  // The enum shims resolve through the same registry.
  for (const AppKind kind : all_app_kinds()) {
    EXPECT_EQ(make_app(kind)->name(), app_kind_name(kind));
  }
}

TEST(AppFactory, FootprintsFitDeviceMemory) {
  // Every app must fit the 32 kB (16384-word) device data memory.
  for (const AppKind kind : all_app_kinds()) {
    const auto app = make_app(kind);
    EXPECT_LE(app->footprint_words(), mem::MemoryGeometry::kWords16)
        << app->name();
  }
}

TEST(AppFactory, EveryAppAllocatesWithinItsFootprint) {
  // footprint_words() is a checked upper bound: the runner reuses the
  // fault-free run whenever a map is clean below it.
  for (const std::string& name : app_names()) {
    const auto app = make_app(name);
    auto system = make_clean_system();
    (void)app->run(system, test_record());
    EXPECT_GT(system.peak_words_allocated(), 0u) << name;
    EXPECT_LE(system.peak_words_allocated(), app->footprint_words()) << name;
  }
}

TEST(AppRuns, DeterministicWithoutFaults) {
  for (const AppKind kind : all_app_kinds()) {
    const auto app = make_app(kind);
    auto sys1 = make_clean_system();
    auto sys2 = make_clean_system();
    const auto out1 = app->run(sys1, test_record());
    const auto out2 = app->run(sys2, test_record());
    EXPECT_EQ(out1, out2) << app->name();
    EXPECT_FALSE(out1.empty()) << app->name();
  }
}

TEST(AppRuns, CleanRunTracksIdealOutput) {
  // Fixed-point vs double-precision golden model: SNR must be high (only
  // quantization noise) for every app that has a float model.
  for (const AppKind kind : all_app_kinds()) {
    const auto app = make_app(kind);
    const auto ideal = app->ideal_output(test_record());
    if (!ideal.has_value()) continue;  // delineation
    auto sys = make_clean_system();
    const auto out = app->run(sys, test_record());
    ASSERT_EQ(out.size(), ideal->size()) << app->name();
    const double snr = metrics::snr_db(*ideal, out);
    if (kind == AppKind::kCompressedSensing) {
      // CS ideal is the float pipeline; the fixed-point compressor's
      // 2-LSB truncation on 11-bit-density codes plus OMP support
      // sensitivity put the clean-run tracking in the teens of dB.
      EXPECT_GT(snr, 12.0) << app->name();
    } else {
      EXPECT_GT(snr, 40.0) << app->name();
    }
  }
}

TEST(AppRuns, RecordTooShortThrows) {
  ecg::GeneratorConfig cfg;
  cfg.duration_s = 1.0;  // 250 samples, far below the 2048 window
  const ecg::Record tiny = ecg::generate_record(cfg);
  for (const AppKind kind : all_app_kinds()) {
    const auto app = make_app(kind);
    auto sys = make_clean_system();
    EXPECT_THROW((void)app->run(sys, tiny), std::invalid_argument)
        << app->name();
  }
}

TEST(AppRuns, MemoryAccessesAreCounted) {
  for (const AppKind kind : all_app_kinds()) {
    const auto app = make_app(kind);
    auto sys = make_clean_system();
    (void)app->run(sys, test_record());
    // Every app must at least write its input window and read it back.
    EXPECT_GE(sys.data().stats().writes, app->input_length()) << app->name();
    EXPECT_GE(sys.data().stats().reads, app->input_length()) << app->name();
  }
}

TEST(DwtApp, OutputLayoutHasEnergyInApproxBand) {
  DwtApp app;
  auto sys = make_clean_system();
  const auto out = app.run(sys, test_record());
  ASSERT_EQ(out.size(), 2048u);
  // Approx band (first n/16) should carry most of the signal energy for a
  // baseline-dominated ECG.
  double approx_e = 0.0;
  double total_e = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    total_e += out[i] * out[i];
    if (i < 128) approx_e += out[i] * out[i];
  }
  EXPECT_GT(approx_e / total_e, 0.5);
}

TEST(MatrixFilterApp, EnhancesHighFrequencyContent) {
  MatrixFilterApp app;
  auto sys = make_clean_system();
  const auto out = app.run(sys, test_record());
  const auto& in = test_record().samples;
  // The unsharp-mask operator boosts high-frequency content: total
  // variation must increase while the DC level is preserved (row sums 1).
  double tv_in = 0.0;
  double tv_out = 0.0;
  double mean_in = 0.0;
  double mean_out = 0.0;
  for (std::size_t i = 1; i < out.size(); ++i) {
    tv_in += std::fabs(static_cast<double>(in[i]) - in[i - 1]);
    tv_out += std::fabs(out[i] - out[i - 1]);
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    mean_in += static_cast<double>(in[i]);
    mean_out += out[i];
  }
  EXPECT_GT(tv_out, tv_in);
  EXPECT_NEAR(mean_out / static_cast<double>(out.size()),
              mean_in / static_cast<double>(out.size()), 30.0);
}

TEST(MatrixFilterApp, ErrorsAmplifyAcrossIterations) {
  // The paper's Fig. 2 mechanism: a single injected error in the input
  // block costs matrix filtering more SNR than it costs a point-wise app,
  // because every output depends on a full row+column and the iterated
  // enhancement amplifies the perturbation.
  const MatrixFilterApp app;
  auto clean_sys = make_clean_system();
  const auto clean = app.run(clean_sys, test_record());

  mem::FaultMap map(mem::MemoryGeometry::kWords16, 16);
  // One stuck-at-0 MSB-region cell inside the B buffer (after A's k*k
  // words). Stuck-at-0 guarantees corruption: baseline samples are
  // negative, so bit 12 is normally 1.
  const std::size_t addr = 32 * 32 + 100;
  map.edit(addr).mask = 1u << 12;
  map.edit(addr).value = 0;
  auto dirty_sys = make_clean_system();
  dirty_sys.attach_faults(&map);
  const auto dirty = app.run(dirty_sys, test_record());

  // The single cell fault must corrupt many outputs (fan-out): the banded
  // operator spreads the error further every iteration, although far-off
  // perturbations fall below one LSB and round away.
  std::size_t affected = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (clean[i] != dirty[i]) ++affected;
  }
  EXPECT_GT(affected, 8u);
}

TEST(MatrixFilterApp, RejectsBadBlocking) {
  MatrixFilterConfig cfg;
  cfg.k = 31;  // does not divide 2048
  EXPECT_THROW(MatrixFilterApp{cfg}, std::invalid_argument);
}

TEST(CsApp, CompressionRatioIsFiftyPercent) {
  const CsApp app;
  EXPECT_EQ(app.footprint_words(),
            app.input_length() + app.input_length() / 2);
}

TEST(CsApp, ReconstructionBeatsRequirementOnCleanRun) {
  const CsApp app;
  auto sys = make_clean_system();
  const auto out = app.run(sys, test_record());
  std::vector<double> original(app.input_length());
  for (std::size_t i = 0; i < original.size(); ++i) {
    original[i] = static_cast<double>(test_record().samples[i]);
  }
  // Lossy ceiling vs original: must be clinically meaningful (>15 dB).
  EXPECT_GT(metrics::snr_db(original, out), 15.0);
}

// --- CsApp reconstruction memo ----------------------------------------------

void expect_same_bytes(const std::vector<double>& got,
                       const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
            0);
}

struct MemoCounts {
  std::uint64_t solves = 0;
  std::uint64_t hits = 0;
};

MemoCounts memo_counts() {
  const auto snap = util::telemetry::snapshot();
  const auto get = [&](const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? std::uint64_t{0} : it->second;
  };
  return {get("cs.reconstructions"), get("cs.memo_hits")};
}

/// One EMT and one fault map to run a CsApp under.
struct FaultCase {
  std::unique_ptr<core::Emt> emt;
  mem::FaultMap map;
};

std::vector<double> run_case(const CsApp& app, const FaultCase& c) {
  core::MemorySystem sys(*c.emt);
  sys.attach_faults(&c.map);
  return app.run(sys, test_record());
}

/// Fault maps for `emts` x `volts`, drawn as a campaign draws them.
std::vector<FaultCase> fault_cases(const std::vector<std::string>& emts,
                                   const std::vector<double>& volts) {
  const auto ber = mem::make_ber_model("log-linear");
  util::Xoshiro256 rng(2016);
  std::vector<FaultCase> cases;
  for (const std::string& name : emts) {
    for (const double v : volts) {
      auto emt = core::make_emt(name);
      const int bits = emt->payload_bits();
      cases.push_back(FaultCase{
          std::move(emt), mem::FaultMap::random(mem::MemoryGeometry::kWords16,
                                                bits, ber->ber(v), rng)});
    }
  }
  return cases;
}

TEST(CsMemo, SolvesEachBlockOnceThenHits) {
  const CsApp app;
  const std::size_t blocks = CsAppConfig{}.blocks;
  const MemoCounts before = memo_counts();
  auto sys1 = make_clean_system();
  const auto first = app.run(sys1, test_record());
  const MemoCounts mid = memo_counts();
  EXPECT_EQ(mid.solves - before.solves, blocks);
  EXPECT_EQ(mid.hits - before.hits, 0u);

  auto sys2 = make_clean_system();
  const auto second = app.run(sys2, test_record());
  const MemoCounts after = memo_counts();
  EXPECT_EQ(after.solves - mid.solves, 0u);
  EXPECT_EQ(after.hits - mid.hits, blocks);
  expect_same_bytes(second, first);
}

TEST(CsMemo, KeepsThePastThirtyTwoMeasurements) {
  // One block per run, so each record is one measurement. After the test
  // record, 31 other records fill the memo to 32 and the test record
  // still hits; a 32nd pushes it out, so it is solved again.
  CsAppConfig one_block;
  one_block.blocks = 1;
  std::vector<ecg::Record> others;
  for (std::uint64_t seed = 100; seed < 132; ++seed) {
    others.push_back(ecg::make_default_record(seed));
  }
  for (const std::size_t fillers : {31u, 32u}) {
    SCOPED_TRACE(testing::Message() << "fillers=" << fillers);
    const CsApp app(one_block);
    const auto run = [&](const ecg::Record& rec) {
      auto sys = make_clean_system();
      (void)app.run(sys, rec);
    };
    run(test_record());
    for (std::size_t i = 0; i < fillers; ++i) run(others[i]);
    const MemoCounts before = memo_counts();
    run(test_record());
    const MemoCounts after = memo_counts();
    EXPECT_EQ(after.solves - before.solves, fillers == 31 ? 0u : 1u);
    EXPECT_EQ(after.hits - before.hits, fillers == 31 ? 1u : 0u);
  }
}

TEST(CsMemo, HitsReturnTheBytesOfAFreshSolve) {
  // One app runs every EMT x 0.50-0.90 V map twice, so most of its blocks
  // are hits; each output must equal that of an app with no memo history.
  std::vector<double> volts;
  for (int step = 0; step <= 8; ++step) volts.push_back(0.50 + 0.05 * step);
  const std::vector<FaultCase> cases = fault_cases(core::emt_names(), volts);
  const CsApp shared;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "pass=" << pass << " case=" << i);
      const CsApp fresh;
      expect_same_bytes(run_case(shared, cases[i]), run_case(fresh, cases[i]));
    }
  }
}

TEST(CsMemo, KeyCoversEveryMeasurementWord) {
  // A stuck-at fault in one word of block 0's measurement (allocated
  // right after the input window) must miss the memoized clean block,
  // wherever in the measurement the word lies.
  static const core::NoProtection none;
  const CsApp shared;
  auto clean_sys = make_clean_system();
  const auto clean = shared.run(clean_sys, test_record());
  const std::size_t m = CsAppConfig{}.cs.block_m;
  for (const std::size_t w : {std::size_t{0}, std::size_t{1}, m / 2 - 1,
                              m / 2, m - 2, m - 1}) {
    SCOPED_TRACE(testing::Message() << "measurement word " << w);
    mem::FaultMap map(mem::MemoryGeometry::kWords16, none.payload_bits());
    map.edit(shared.input_length() + w) = mem::WordFaults{0xC000u, 0x4000u};
    core::MemorySystem sys(none);
    sys.attach_faults(&map);
    const auto got = shared.run(sys, test_record());
    const CsApp fresh;
    core::MemorySystem fresh_sys(none);
    fresh_sys.attach_faults(&map);
    const auto want = fresh.run(fresh_sys, test_record());
    EXPECT_NE(want, clean);  // the fault reaches the output
    expect_same_bytes(got, want);
  }
}

TEST(CsMemo, SharedAcrossThreadsMatchesSerialRuns) {
  // Clean and faulty maps mixed; every thread walks all of them from a
  // different starting point, twice, on one shared app, so threads race
  // on the same keys while other keys are being inserted and evicted.
  const std::vector<FaultCase> cases =
      fault_cases({"none", "dream", "ecc_secded"}, {0.5, 0.55, 0.6, 0.9});
  std::vector<std::vector<double>> serial;
  {
    const CsApp app;
    for (const FaultCase& c : cases) serial.push_back(run_case(app, c));
  }
  const CsApp shared;
  constexpr std::size_t kThreads = 6;
  const std::size_t runs = 2 * cases.size();
  (void)test_record();  // built before the threads start
  std::vector<std::vector<std::vector<double>>> outputs(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < runs; ++i) {
        outputs[t].push_back(
            run_case(shared, cases[(t * 5 + i) % cases.size()]));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < runs; ++i) {
      SCOPED_TRACE(testing::Message() << "thread=" << t << " run=" << i);
      expect_same_bytes(outputs[t][i], serial[(t * 5 + i) % cases.size()]);
    }
  }
}

TEST(MorphFilterApp, RemovesBaselineWander) {
  // Feed a record with strong baseline wander; after morphological
  // correction the output mean must be near zero and drift suppressed.
  ecg::GeneratorConfig cfg;
  cfg.seed = 23;
  cfg.noise.baseline_wander_mv = 0.4;
  const ecg::Record rec = ecg::generate_record(cfg);

  MorphFilterApp app;
  auto sys = make_clean_system();
  const auto out = app.run(sys, rec);

  double mean_out = 0.0;
  for (const double v : out) mean_out += v;
  mean_out /= static_cast<double>(out.size());
  double mean_in = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    mean_in += static_cast<double>(rec.samples[i]);
  }
  mean_in /= static_cast<double>(out.size());
  EXPECT_LT(std::fabs(mean_out), std::fabs(mean_in) * 0.2 + 50.0);
}

TEST(DelineationApp, DetectsRPeaksOnCleanSignal) {
  DelineationApp app;
  auto sys = make_clean_system();
  const metrics::FiducialList detected = app.delineate(sys, test_record());

  metrics::FiducialList truth_r;
  for (const auto& f : test_record().truth) {
    if (f.type == metrics::FiducialType::kR &&
        f.position < static_cast<std::int32_t>(app.input_length())) {
      truth_r.push_back(f);
    }
  }
  metrics::FiducialList detected_r;
  for (const auto& f : detected) {
    if (f.type == metrics::FiducialType::kR) detected_r.push_back(f);
  }
  const metrics::MatchScore score =
      metrics::match_fiducials(truth_r, detected_r, 12);
  EXPECT_GE(score.sensitivity(), 0.85);
  EXPECT_GE(score.ppv(), 0.85);
}

TEST(DelineationApp, FindsAllFiveWaveTypes) {
  DelineationApp app;
  auto sys = make_clean_system();
  const metrics::FiducialList detected = app.delineate(sys, test_record());
  std::array<int, 5> counts{};
  for (const auto& f : detected) {
    ++counts[static_cast<std::size_t>(f.type)];
  }
  for (int c : counts) EXPECT_GT(c, 0);
}

class AppEmtMatrix
    : public ::testing::TestWithParam<std::tuple<AppKind, core::EmtKind>> {};

TEST_P(AppEmtMatrix, CleanRunIdenticalUnderEveryEmt) {
  // Without faults, every EMT must be transparent: the output under DREAM
  // or ECC must match the unprotected output bit for bit.
  const auto [app_kind, emt_kind] = GetParam();
  const auto app = make_app(app_kind);

  auto baseline_sys = make_clean_system();
  const auto baseline = app->run(baseline_sys, test_record());

  const auto emt = core::make_emt(emt_kind);
  core::MemorySystem sys(*emt);
  const auto out = app->run(sys, test_record());
  EXPECT_EQ(out, baseline);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, AppEmtMatrix,
    ::testing::Combine(
        ::testing::Values(AppKind::kDwt, AppKind::kMatrixFilter,
                          AppKind::kCompressedSensing, AppKind::kMorphFilter,
                          AppKind::kDelineation),
        ::testing::Values(core::EmtKind::kNone, core::EmtKind::kDream,
                          core::EmtKind::kEccSecDed)));

}  // namespace
}  // namespace ulpdream::apps
