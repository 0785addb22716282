#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ulpdream/apps/dwt_app.hpp"
#include "ulpdream/campaign/policy_explorer.hpp"
#include "ulpdream/campaign/session.hpp"
#include "ulpdream/core/ecc_secded.hpp"
#include "ulpdream/metrics/quality.hpp"
#include "ulpdream/ecg/database.hpp"
#include "ulpdream/sim/bit_significance.hpp"
#include "ulpdream/sim/runner.hpp"
#include "ulpdream/util/rng.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace ulpdream::sim {
namespace {

const ecg::Record& test_record() {
  static const ecg::Record rec = ecg::make_default_record(29);
  return rec;
}

TEST(Runner, CleanRunHitsMaxSnr) {
  ExperimentRunner runner;
  const apps::DwtApp app;
  const RunResult clean = runner.run_once(
      app, test_record(), *core::make_emt("none"), nullptr, 0.9);
  EXPECT_NEAR(clean.snr_db, runner.max_snr_db(app, test_record()), 1e-9);
  EXPECT_GT(clean.snr_db, 40.0);  // quantization-limited, finite
  EXPECT_LT(clean.snr_db, metrics::kSnrCeilingDb);
}

TEST(Runner, FaultsReduceSnr) {
  ExperimentRunner runner;
  const apps::DwtApp app;
  const mem::FaultMap map = mem::FaultMap::stuck_bit(
      mem::MemoryGeometry::kWords16, 16, 14, true);
  const RunResult dirty =
      runner.run_once(app, test_record(), *core::make_emt("none"), &map, 0.9);
  EXPECT_LT(dirty.snr_db, runner.max_snr_db(app, test_record()) - 10.0);
}

TEST(Runner, EnergyAndAccessesPopulated) {
  ExperimentRunner runner;
  const apps::DwtApp app;
  const RunResult r = runner.run_once(app, test_record(),
                                      *core::make_emt("dream"), nullptr, 0.7);
  EXPECT_GT(r.data_accesses, 0u);
  EXPECT_GT(r.side_accesses, 0u);
  EXPECT_EQ(r.cycles, 2 * r.data_accesses);
  EXPECT_GT(r.energy.total_j(), 0.0);
}

TEST(Runner, DreamCorrectsStuckMsbFault) {
  ExperimentRunner runner;
  const apps::DwtApp app;
  const mem::FaultMap map = mem::FaultMap::stuck_bit(
      mem::MemoryGeometry::kWords16, 16, 14, true);
  const RunResult none_r =
      runner.run_once(app, test_record(), *core::make_emt("none"), &map, 0.9);
  const RunResult dream_r =
      runner.run_once(app, test_record(), *core::make_emt("dream"), &map, 0.9);
  EXPECT_GT(dream_r.snr_db, none_r.snr_db + 20.0);
  EXPECT_GT(dream_r.counters.corrected_words, 0u);
}

TEST(BitSignificance, MsbErrorsHurtMore) {
  ExperimentRunner runner;
  const apps::DwtApp app;
  const std::vector<ecg::Record> records = {test_record()};
  const BitSignificanceResult res =
      run_bit_significance(runner, app, records);
  // Paper Fig. 2: SNR decreases continuously toward the MSBs. Check the
  // broad ordering LSB >> mid >> MSB for both polarities.
  for (int pol = 0; pol < 2; ++pol) {
    const auto& snr = res.snr_db[static_cast<std::size_t>(pol)];
    EXPECT_GT(snr[0], snr[8]);
    EXPECT_GT(snr[8], snr[14]);
    EXPECT_GT(snr[0], 30.0);
  }
  EXPECT_GT(res.max_snr_db, 40.0);
}

TEST(BitSignificance, StuckAtOneMilderOnMsbs) {
  // Negative-dominated samples hide stuck-at-1 MSB faults (paper Sec. III).
  ExperimentRunner runner;
  const apps::DwtApp app;
  const std::vector<ecg::Record> records = {test_record()};
  const BitSignificanceResult res =
      run_bit_significance(runner, app, records);
  EXPECT_GT(res.snr_db[1][14], res.snr_db[0][14]);
}

// ---------------------------------------------------------------------------
// Clean-footprint reuse: a run whose map has no entry below the app's
// footprint is answered from the runner's fault-free run. It must change
// no byte of any result.

template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

bool same_result(const RunResult& a, const RunResult& b) {
  return same_bits(a.snr_db, b.snr_db) &&
         same_bits(a.energy.data_dynamic_j, b.energy.data_dynamic_j) &&
         same_bits(a.energy.side_dynamic_j, b.energy.side_dynamic_j) &&
         same_bits(a.energy.codec_j, b.energy.codec_j) &&
         same_bits(a.energy.data_leak_j, b.energy.data_leak_j) &&
         same_bits(a.energy.side_leak_j, b.energy.side_leak_j) &&
         a.counters.decodes == b.counters.decodes &&
         a.counters.corrected_words == b.counters.corrected_words &&
         a.counters.detected_uncorrectable ==
             b.counters.detected_uncorrectable &&
         a.data_accesses == b.data_accesses &&
         a.side_accesses == b.side_accesses && a.cycles == b.cycles;
}

/// The run without the runner: a MemorySystem, the app, the SNR against
/// the reference and the energy model.
RunResult bare_run(ExperimentRunner& refs, const apps::BioApp& app,
                   const ecg::Record& record, const core::Emt& emt,
                   const mem::FaultMap* faults, double v) {
  core::MemorySystem system(emt);
  system.attach_faults(faults);
  const std::vector<double> output = app.run(system, record);
  const auto* safe = system.safe();
  RunResult r;
  r.snr_db = metrics::snr_db(refs.reference(app, record), output);
  r.counters = system.counters();
  r.data_accesses = system.data().stats().total();
  r.side_accesses = safe != nullptr ? safe->stats().total() : 0;
  r.cycles = 2 * r.data_accesses;
  r.energy = refs.energy_model().compute(
      emt, v, system.data().stats(),
      safe != nullptr ? &safe->stats() : nullptr, system.data().words(),
      r.cycles);
  return r;
}

std::uint64_t counter_value(const std::string& name) {
  const auto counters = util::telemetry::snapshot().counters;
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

TEST(CleanRunReuse, WarmRunnerMatchesBareRunsOnEveryAppEmtAndVoltage) {
  std::vector<std::unique_ptr<apps::BioApp>> app_objs;
  for (const std::string& name : apps::app_names()) {
    app_objs.push_back(apps::make_app(name));
  }
  // This binary registers no EMT, so these are the built-ins.
  std::vector<std::unique_ptr<core::Emt>> emt_objs;
  int map_bits = core::EccSecDed::kPayloadBits;
  for (const std::string& name : core::emt_names()) {
    emt_objs.push_back(core::make_emt(name));
    map_bits = std::max(map_bits, emt_objs.back()->payload_bits());
  }
  const std::vector<ecg::Record> records = {ecg::make_default_record(29),
                                            ecg::make_default_record(31)};
  const auto ber = mem::make_ber_model("log-linear");

  ExperimentRunner warm;
  ExperimentRunner refs;
  const std::uint64_t clean_before = counter_value("sim.clean_runs");
  const std::uint64_t reused_before = counter_value("sim.clean_runs_reused");
  std::uint64_t cases = 0;
  const std::vector<double> voltages = {0.9, 0.8, 0.7, 0.6, 0.5};
  for (const std::uint64_t seed : {1u, 2u}) {
    for (const ecg::Record& record : records) {
      for (std::size_t vi = 0; vi < voltages.size(); ++vi) {
        const double v = voltages[vi];
        util::Xoshiro256 rng(seed * 16 + vi);
        const mem::FaultMap map = mem::FaultMap::random(
            mem::MemoryGeometry::kWords16, map_bits, ber->ber(v), rng);
        for (const auto& app : app_objs) {
          for (const auto& emt : emt_objs) {
            const RunResult got =
                warm.run_once(*app, record, *emt, &map, v);
            const RunResult want =
                bare_run(refs, *app, record, *emt, &map, v);
            EXPECT_TRUE(same_result(got, want))
                << app->name() << " " << emt->name() << " " << record.name
                << " v=" << v << " seed=" << seed;
            ++cases;
          }
        }
      }
    }
  }
  // The grid held clean and faulty maps, and clean runs were reused.
  const std::uint64_t clean = counter_value("sim.clean_runs") - clean_before;
  EXPECT_GT(clean, 0u);
  EXPECT_LT(clean, cases);
  EXPECT_GT(counter_value("sim.clean_runs_reused") - reused_before, 0u);
}

TEST(CleanRunReuse, FootprintBoundaryDecidesReuse) {
  const apps::DwtApp app;
  const auto none = core::make_emt("none");
  const std::size_t footprint = app.footprint_words();
  ExperimentRunner runner;
  ExperimentRunner refs;
  (void)runner.run_once(app, test_record(), *none, nullptr, 0.7);  // fill

  mem::FaultMap inside(mem::MemoryGeometry::kWords16, 16);
  inside.edit(footprint - 1) = {0x4000, 0x4000};
  mem::FaultMap outside(mem::MemoryGeometry::kWords16, 16);
  outside.edit(footprint) = {0x4000, 0x4000};

  const std::uint64_t clean_before = counter_value("sim.clean_runs");
  const RunResult in = runner.run_once(app, test_record(), *none, &inside, 0.7);
  EXPECT_EQ(counter_value("sim.clean_runs"), clean_before);
  EXPECT_TRUE(same_result(
      in, bare_run(refs, app, test_record(), *none, &inside, 0.7)));

  const RunResult out =
      runner.run_once(app, test_record(), *none, &outside, 0.7);
  EXPECT_EQ(counter_value("sim.clean_runs"), clean_before + 1);
  EXPECT_TRUE(same_result(
      out, bare_run(refs, app, test_record(), *none, &outside, 0.7)));
}

TEST(CleanRunReuse, OrderOfCleanAndFaultyMapsDoesNotMatter) {
  const apps::DwtApp app;
  const auto dream = core::make_emt("dream");
  const mem::FaultMap clean(mem::MemoryGeometry::kWords16, 22);
  const mem::FaultMap faulty =
      mem::FaultMap::stuck_bit(mem::MemoryGeometry::kWords16, 22, 14, true);
  const auto run = [&](ExperimentRunner& runner, const mem::FaultMap& map) {
    return runner.run_once(app, test_record(), *dream, &map, 0.6);
  };
  ExperimentRunner a;
  const RunResult a_clean = run(a, clean);
  const RunResult a_faulty = run(a, faulty);
  const RunResult a_clean_again = run(a, clean);  // reused
  ExperimentRunner b;
  const RunResult b_faulty = run(b, faulty);
  const RunResult b_clean = run(b, clean);
  const RunResult b_faulty_again = run(b, faulty);

  EXPECT_TRUE(same_result(a_clean, b_clean));
  EXPECT_TRUE(same_result(a_clean_again, b_clean));
  EXPECT_TRUE(same_result(a_faulty, b_faulty));
  EXPECT_TRUE(same_result(b_faulty_again, b_faulty));
  EXPECT_FALSE(same_result(a_clean, a_faulty));
}

/// The message of the std::invalid_argument `run` throws ("" if none).
template <typename Fn>
std::string invalid_argument_message(Fn&& run) {
  try {
    run();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(CleanRunReuse, WarmRunnerRejectsBadMapsLikeAColdOne) {
  const apps::DwtApp app;
  const auto ecc = core::make_emt("ecc_secded");
  const mem::FaultMap short_map(100, 22);
  const mem::FaultMap narrow_map(mem::MemoryGeometry::kWords16, 16);
  for (const mem::FaultMap* map : {&short_map, &narrow_map}) {
    ExperimentRunner cold;
    const std::string cold_error = invalid_argument_message(
        [&] { (void)cold.run_once(app, test_record(), *ecc, map, 0.7); });
    ExperimentRunner warm;
    (void)warm.run_once(app, test_record(), *ecc, nullptr, 0.7);  // fill
    const std::uint64_t reused = counter_value("sim.clean_runs_reused");
    const std::string warm_error = invalid_argument_message(
        [&] { (void)warm.run_once(app, test_record(), *ecc, map, 0.7); });
    EXPECT_FALSE(cold_error.empty());
    EXPECT_EQ(warm_error, cold_error);
    EXPECT_EQ(counter_value("sim.clean_runs_reused"), reused);
  }
}

/// Allocates one word more than its footprint_words() promises.
class OverreachingApp final : public apps::BioApp {
 public:
  [[nodiscard]] std::string name() const override { return "overreach"; }
  [[nodiscard]] std::size_t input_length() const override { return 16; }
  [[nodiscard]] std::size_t footprint_words() const override { return 16; }
  [[nodiscard]] std::vector<double> run(
      core::MemorySystem& system, const ecg::Record&) const override {
    system.reset_allocator();
    auto buf = core::ProtectedBuffer::allocate(system, 17);
    buf.set(0, 1);
    return {static_cast<double>(buf.get(0))};
  }
};

TEST(CleanRunReuse, RunPastTheFootprintBreaksTheContract) {
  const OverreachingApp app;
  const auto none = core::make_emt("none");
  ExperimentRunner runner;
  for (int call = 0; call < 2; ++call) {  // a failed run caches nothing
    try {
      (void)runner.run_once(app, test_record(), *none, nullptr, 0.9);
      ADD_FAILURE() << "no std::logic_error on call " << call;
    } catch (const std::logic_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("overreach"), std::string::npos) << what;
      EXPECT_NE(what.find("17"), std::string::npos) << what;
    }
  }
}

/// Voltage sweep of `app_names` x the paper EMTs on test_record(), run
/// on a campaign Session: the store and its full-GroupBy aggregate rows.
struct Sweep {
  campaign::ResultStore store;
  std::vector<campaign::AggregateRow> rows;

  /// The rows of app `ai`, EMT-major.
  [[nodiscard]] std::span<const campaign::AggregateRow> app(
      std::size_t ai) const {
    return campaign::app_slice(store.spec(), rows, 0, ai);
  }
  [[nodiscard]] const campaign::AggregateRow* find(const std::string& emt,
                                                   double v) const {
    return campaign::find_row(app(0), emt, v);
  }
};

Sweep sweep(const std::vector<std::string>& app_names,
            std::vector<double> voltages, std::size_t runs) {
  campaign::CampaignSpec spec;
  spec.apps = app_names;
  spec.emts = core::paper_emt_names();
  spec.voltages = std::move(voltages);
  spec.records = {
      campaign::RecordAxis{ecg::Pathology::kNormalSinus, 1.0, 29}};
  spec.repetitions = runs;
  campaign::Session session(energy::SystemEnergyModel(), 2);
  campaign::ResultStore store = session.submit(spec).take();
  std::vector<campaign::AggregateRow> rows = store.aggregate();
  return Sweep{std::move(store), std::move(rows)};
}

Sweep tiny_sweep() { return sweep({"dwt"}, {0.5, 0.7, 0.9}, 4); }

TEST(VoltageSweep, ProducesAllPoints) {
  const Sweep res = tiny_sweep();
  EXPECT_EQ(res.app(0).size(), 3u * 3u);
  EXPECT_NE(res.find("dream", 0.7), nullptr);
  EXPECT_EQ(res.find("dream", 0.62), nullptr);
}

TEST(VoltageSweep, SnrDegradesAsVoltageDrops) {
  const Sweep res = tiny_sweep();
  for (const std::string& emt : core::paper_emt_names()) {
    const campaign::AggregateRow* hi = res.find(emt, 0.9);
    const campaign::AggregateRow* lo = res.find(emt, 0.5);
    ASSERT_NE(hi, nullptr);
    ASSERT_NE(lo, nullptr);
    EXPECT_GT(hi->snr_mean_db, lo->snr_mean_db);
  }
}

TEST(VoltageSweep, NominalVoltageIsErrorFree) {
  const Sweep res = tiny_sweep();
  const campaign::AggregateRow* p = res.find("none", 0.9);
  ASSERT_NE(p, nullptr);
  // BER(0.9) = 1e-9 on ~360k cells: fault-free with overwhelming
  // probability, so mean SNR equals the max-SNR dashed line.
  EXPECT_NEAR(p->snr_mean_db, res.store.max_snr_db(0, 0), 0.5);
}

TEST(VoltageSweep, EnergyOrderingNoneDreamEcc) {
  const Sweep res = tiny_sweep();
  for (const double v : {0.5, 0.7, 0.9}) {
    const double e_none = res.find("none", v)->energy_mean_j;
    const double e_dream = res.find("dream", v)->energy_mean_j;
    const double e_ecc = res.find("ecc_secded", v)->energy_mean_j;
    EXPECT_LT(e_none, e_dream);
    EXPECT_LT(e_dream, e_ecc);
  }
}

TEST(VoltageSweep, MultiAppSharesConfig) {
  const Sweep res = sweep({"dwt", "morph_filter"}, {0.5, 0.7, 0.9}, 4);
  ASSERT_EQ(res.rows.size(), 2u * 3u * 3u);
  EXPECT_EQ(res.app(0).front().app, "dwt");
  EXPECT_EQ(res.app(1).front().app, "morph_filter");
}

TEST(PolicyExplorer, DerivesFeasiblePolicy) {
  using campaign::EmtOperatingPoint;
  using campaign::PolicyResult;
  const Sweep dwt =
      sweep({"dwt"}, {0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9}, 12);
  const double max_snr = dwt.store.max_snr_db(0, 0);

  // Relative criterion (the paper's -1 dB form): sanity of the structure.
  const PolicyResult relative =
      campaign::explore_policy(dwt.app(0), max_snr, 1.0);
  EXPECT_GT(relative.nominal_energy_j, 0.0);
  ASSERT_EQ(relative.points.size(), 3u);
  for (const auto& p : relative.points) {
    EXPECT_TRUE(p.feasible) << p.emt;
    EXPECT_LE(p.min_safe_voltage, 0.9);
  }
  const auto find = [](const PolicyResult& res, const std::string& k) {
    for (const auto& p : res.points) {
      if (p.emt == k) return p;
    }
    return EmtOperatingPoint{};
  };
  // Protected techniques reach at least as deep as no protection.
  EXPECT_LE(find(relative, "dream").min_safe_voltage,
            find(relative, "none").min_safe_voltage);

  // Absolute clinical criterion (40 dB on the P10 reliability statistic):
  // protection must unlock deeper floors AND larger net savings despite
  // its energy overhead.
  const PolicyResult absolute = campaign::explore_policy(
      dwt.app(0), max_snr, 40.0, campaign::QualityCriterion::kAbsoluteSnr,
      campaign::QualityStatistic::kP10);
  EXPECT_DOUBLE_EQ(absolute.required_snr_db, 40.0);
  // Protection unlocks deeper voltage floors than unprotected operation
  // (paper Sec. VI-C range structure), with positive net savings.
  EXPECT_LT(find(absolute, "dream").min_safe_voltage,
            find(absolute, "none").min_safe_voltage);
  EXPECT_LE(find(absolute, "ecc_secded").min_safe_voltage,
            find(absolute, "dream").min_safe_voltage);
  EXPECT_GT(find(absolute, "dream").savings_vs_nominal_frac, 0.0);
  EXPECT_GT(find(absolute, "ecc_secded").savings_vs_nominal_frac, 0.0);
}

TEST(PolicyExplorer, RequiresNominalPoint) {
  // Every paper EMT at 0.5 V, and no unprotected row at nominal voltage.
  std::vector<campaign::AggregateRow> rows;
  for (const std::string& emt : core::paper_emt_names()) {
    campaign::AggregateRow row;
    row.emt = emt;
    row.voltage = 0.5;
    rows.push_back(row);
  }
  EXPECT_THROW((void)campaign::explore_policy(rows, 60.0, 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace ulpdream::sim
