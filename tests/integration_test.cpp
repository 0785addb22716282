// End-to-end integration tests: cross-module behaviour that mirrors the
// paper's headline claims, run at reduced Monte-Carlo depth so the suite
// stays fast while still exercising the full pipeline.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ulpdream/apps/app.hpp"
#include "ulpdream/apps/dwt_app.hpp"
#include "ulpdream/campaign/policy_explorer.hpp"
#include "ulpdream/campaign/session.hpp"
#include "ulpdream/ecg/database.hpp"
#include "ulpdream/sim/runner.hpp"

namespace ulpdream {
namespace {

const ecg::Record& record() {
  static const ecg::Record rec = ecg::make_default_record(2016);
  return rec;
}

/// DWT x the paper EMTs over the full voltage window on record(), with
/// `runs` fault maps per point, run on a campaign Session.
campaign::ResultStore dwt_sweep(std::size_t runs) {
  campaign::CampaignSpec spec;
  spec.apps = {"dwt"};
  spec.emts = core::paper_emt_names();
  spec.voltages = {0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9};
  spec.records = {
      campaign::RecordAxis{ecg::Pathology::kNormalSinus, 1.0, 2016}};
  spec.repetitions = runs;
  spec.seed = 7;
  campaign::Session session(energy::SystemEnergyModel(), 2);
  return session.submit(spec).take();
}

/// Mean SNR of (emt, v) in a dwt_sweep's rows, which hold every cell.
double snr(const std::vector<campaign::AggregateRow>& rows, const char* emt,
           double v) {
  return campaign::find_row(rows, emt, v)->snr_mean_db;
}

TEST(Integration, ProtectionHelpsAtMidVoltages) {
  // Fig. 4 headline: in the 0.6-0.7 V band both EMTs massively outperform
  // no protection.
  const auto rows = dwt_sweep(8).aggregate();
  for (const double v : {0.6, 0.65, 0.7}) {
    const double none = snr(rows, "none", v);
    const double dream = snr(rows, "dream", v);
    const double ecc = snr(rows, "ecc_secded", v);
    EXPECT_GT(dream, none + 3.0) << "v=" << v;
    EXPECT_GT(ecc, none + 3.0) << "v=" << v;
  }
}

TEST(Integration, EccWinsMidRangeDreamWinsDeep) {
  // Paper Sec. VI-A: ECC slightly better in 0.55-0.65 V; below 0.55 V it
  // detects-but-not-corrects multi-bit words while DREAM keeps fixing
  // MSB runs. At the deepest point DREAM must not lose to ECC.
  const auto rows = dwt_sweep(16).aggregate();
  const double dream_050 = snr(rows, "dream", 0.5);
  const double ecc_050 = snr(rows, "ecc_secded", 0.5);
  EXPECT_GE(dream_050, ecc_050 - 1.0);

  const double dream_065 = snr(rows, "dream", 0.65);
  const double ecc_065 = snr(rows, "ecc_secded", 0.65);
  // Mid-range: ECC at least competitive (corrects any single-bit error,
  // DREAM only sign-run errors).
  EXPECT_GE(ecc_065, dream_065 - 3.0);
}

TEST(Integration, EnergyOverheadHeadline) {
  // Sec. VI-B: ~55% (ECC) vs ~34% (DREAM) average energy overhead — the
  // 21% headline saving. Reproduced on a real application access trace.
  const campaign::ResultStore store = dwt_sweep(2);
  const auto rows = store.aggregate();
  const auto energy = [&](const char* emt, double v) {
    return campaign::find_row(rows, emt, v)->energy_mean_j;
  };
  double sum_none = 0.0;
  double sum_dream = 0.0;
  double sum_ecc = 0.0;
  for (const double v : store.spec().voltages) {
    sum_none += energy("none", v);
    sum_dream += energy("dream", v);
    sum_ecc += energy("ecc_secded", v);
  }
  const double dream_overhead = sum_dream / sum_none - 1.0;
  const double ecc_overhead = sum_ecc / sum_none - 1.0;
  EXPECT_NEAR(dream_overhead, 0.34, 0.08);
  EXPECT_NEAR(ecc_overhead, 0.55, 0.10);
  EXPECT_GT(ecc_overhead - dream_overhead, 0.10);
}

TEST(Integration, PolicySavingsOrdering) {
  // Sec. VI-C: under the clinical quality requirement, protection unlocks
  // deeper voltages whose net savings beat unprotected operation even
  // after paying the EMT overhead.
  const campaign::ResultStore store = dwt_sweep(12);
  const campaign::PolicyResult policy = campaign::explore_policy(
      store.aggregate(), store.max_snr_db(0, 0), 40.0,
      campaign::QualityCriterion::kAbsoluteSnr,
      campaign::QualityStatistic::kP10);

  double s_none = -1.0;
  double s_dream = -1.0;
  double s_ecc = -1.0;
  double v_none = 1.0;
  double v_dream = 1.0;
  double v_ecc = 1.0;
  for (const auto& p : policy.points) {
    if (!p.feasible) continue;
    if (p.emt == "none") {
      s_none = p.savings_vs_nominal_frac;
      v_none = p.min_safe_voltage;
    }
    if (p.emt == "dream") {
      s_dream = p.savings_vs_nominal_frac;
      v_dream = p.min_safe_voltage;
    }
    if (p.emt == "ecc_secded") {
      s_ecc = p.savings_vs_nominal_frac;
      v_ecc = p.min_safe_voltage;
    }
  }
  // All EMTs feasible with positive savings; protected techniques reach
  // strictly deeper voltages (the paper's triggering-range structure).
  EXPECT_GT(s_none, 0.0);
  EXPECT_GT(s_dream, 0.0);
  EXPECT_GT(s_ecc, 0.0);
  EXPECT_LT(v_dream, v_none);
  EXPECT_LE(v_ecc, v_dream);
}

TEST(Integration, SameFaultMapFairness) {
  // Sec. V protocol: the same fault map must be reusable across EMTs; the
  // run under "none" and under "dream" with an empty map are identical.
  sim::ExperimentRunner runner;
  const apps::DwtApp app;
  util::Xoshiro256 rng(55);
  const mem::FaultMap map = mem::FaultMap::random(
      mem::MemoryGeometry::kWords16, 22, 1e-4, rng);
  const sim::RunResult a =
      runner.run_once(app, record(), *core::make_emt("none"), &map, 0.7);
  const sim::RunResult b =
      runner.run_once(app, record(), *core::make_emt("none"), &map, 0.7);
  EXPECT_DOUBLE_EQ(a.snr_db, b.snr_db);  // deterministic replay
}

TEST(Integration, AdaptivePolicySelectsConfiguredEmt) {
  // The derived policy must reproduce the paper's triggering scheme on a
  // voltage trajectory sweeping 0.9 -> 0.55 V.
  const core::AdaptivePolicy policy = core::AdaptivePolicy::paper_dwt_policy();
  int none_count = 0;
  int dream_count = 0;
  int ecc_count = 0;
  for (double v = 0.9; v >= 0.55; v -= 0.01) {
    const std::string& emt = policy.select(v);
    if (emt == "none") ++none_count;
    if (emt == "dream") ++dream_count;
    if (emt == "ecc_secded") ++ecc_count;
  }
  EXPECT_GT(none_count, 0);
  EXPECT_GT(dream_count, 0);
  EXPECT_GT(ecc_count, 0);
  EXPECT_GT(dream_count, none_count);  // DREAM covers the widest band
}

TEST(Integration, AllAppsSurviveDeepVoltageWithDream) {
  // Robustness: every application completes and yields a finite SNR under
  // heavy fault injection (0.5 V) with DREAM.
  sim::ExperimentRunner runner;
  util::Xoshiro256 rng(66);
  const mem::FaultMap map = mem::FaultMap::random(
      mem::MemoryGeometry::kWords16, 22, 2e-2, rng);
  for (const std::string& name : apps::paper_app_names()) {
    const auto app = apps::make_app(name);
    const sim::RunResult r =
        runner.run_once(*app, record(), *core::make_emt("dream"), &map, 0.5);
    EXPECT_TRUE(std::isfinite(r.snr_db)) << app->name();
    EXPECT_GT(r.energy.total_j(), 0.0) << app->name();
  }
}

}  // namespace
}  // namespace ulpdream
