#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ulpdream/campaign/columnar.hpp"
#include "ulpdream/campaign/policy_explorer.hpp"
#include "ulpdream/campaign/result_store.hpp"
#include "ulpdream/campaign/session.hpp"
#include "ulpdream/campaign/spec.hpp"
#include "ulpdream/util/rng.hpp"

namespace ulpdream::campaign {
namespace {

/// Small 5-axis grid: 2 apps x 3 EMTs x 2 voltages x 2 records (different
/// pathology and noise level) x 2 repetitions.
CampaignSpec tiny_spec() {
  CampaignSpec spec;
  spec.apps = {"dwt", "morph_filter"};
  spec.emts = core::paper_emt_names();
  spec.voltages = {0.6, 0.8};
  spec.records = {RecordAxis{ecg::Pathology::kNormalSinus, 1.0, 7},
                  RecordAxis{ecg::Pathology::kAtrialFib, 1.25, 11}};
  spec.repetitions = 2;
  spec.seed = 2016;
  return spec.normalized();
}

/// Runs the shard's slice of `spec` to completion on a fresh Session.
ResultStore run(const CampaignSpec& spec, unsigned threads,
                Shard shard = Shard{}) {
  Session session(energy::SystemEnergyModel(), threads);
  SubmitOptions options;
  options.shard = shard;
  return session.submit(spec, std::move(options)).take();
}

/// A store path in the temp directory, unique per process (ctest -j runs
/// every test as its own process) and per call.
std::string temp_store_path() {
  static std::atomic<std::uint64_t> sequence{0};
  return (std::filesystem::temp_directory_path() /
          ("ulpdream_campaign_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(sequence++) + ".ulpdcol"))
      .string();
}

// Bit-identical row comparison: EXPECT_EQ on every double, no tolerance.
void expect_rows_identical(const std::vector<AggregateRow>& a,
                           const std::vector<AggregateRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "row " << i);
    EXPECT_EQ(a[i].record, b[i].record);
    EXPECT_EQ(a[i].app, b[i].app);
    EXPECT_EQ(a[i].emt, b[i].emt);
    EXPECT_EQ(a[i].voltage, b[i].voltage);
    EXPECT_EQ(a[i].n, b[i].n);
    EXPECT_EQ(a[i].snr_mean_db, b[i].snr_mean_db);
    EXPECT_EQ(a[i].snr_stddev_db, b[i].snr_stddev_db);
    EXPECT_EQ(a[i].snr_min_db, b[i].snr_min_db);
    EXPECT_EQ(a[i].snr_max_db, b[i].snr_max_db);
    EXPECT_EQ(a[i].snr_p10_db, b[i].snr_p10_db);
    EXPECT_EQ(a[i].energy_mean_j, b[i].energy_mean_j);
    EXPECT_EQ(a[i].data_dynamic_j, b[i].data_dynamic_j);
    EXPECT_EQ(a[i].side_dynamic_j, b[i].side_dynamic_j);
    EXPECT_EQ(a[i].codec_j, b[i].codec_j);
    EXPECT_EQ(a[i].data_leak_j, b[i].data_leak_j);
    EXPECT_EQ(a[i].side_leak_j, b[i].side_leak_j);
    EXPECT_EQ(a[i].corrected_mean, b[i].corrected_mean);
    EXPECT_EQ(a[i].detected_mean, b[i].detected_mean);
  }
}

TEST(CampaignSpec, ExpansionIsCanonical) {
  const CampaignSpec spec = tiny_spec();
  EXPECT_EQ(spec.item_count(), 2u * 2u * 2u);
  EXPECT_EQ(spec.cell_count(), 2u * 2u * 3u * 2u);
  const auto items = expand(spec);
  ASSERT_EQ(items.size(), spec.item_count());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(items[i].index, i);
    EXPECT_EQ(items[i].index,
              (items[i].record_index * spec.voltages.size() +
               items[i].voltage_index) *
                      spec.repetitions +
                  items[i].rep_index);
    // Seeds depend only on (spec.seed, index) — never on shard/thread.
    EXPECT_EQ(items[i].seed, util::mix64(spec.seed, i));
  }
}

TEST(CampaignSpec, ShardsPartitionTheExpansion) {
  const CampaignSpec spec = tiny_spec();
  std::vector<char> seen(spec.item_count(), 0);
  for (std::size_t shard = 0; shard < 3; ++shard) {
    for (const WorkItem& item : expand_shard(spec, shard, 3)) {
      EXPECT_FALSE(seen[item.index]);
      seen[item.index] = 1;
    }
  }
  for (char s : seen) EXPECT_TRUE(s);
  EXPECT_THROW((void)expand_shard(spec, 3, 3), std::invalid_argument);
  EXPECT_THROW((void)expand_shard(spec, 0, 0), std::invalid_argument);
}

TEST(CampaignSpec, EveryExpansionIsWorkItemAtItsIndex) {
  // 3 records x 3 voltages x 4 reps. The nested record > voltage > rep
  // enumeration is the reference; expand, every shard of a 5-way split
  // and a lease-shaped range must return exactly work_item(spec, index).
  CampaignSpec spec = tiny_spec();
  spec.records.push_back(RecordAxis{ecg::Pathology::kNormalSinus, 0.5, 3});
  spec.voltages = {0.5, 0.7, 0.9};
  spec.repetitions = 4;
  spec = spec.normalized();
  const auto same = [](const WorkItem& a, const WorkItem& b) {
    return a.index == b.index && a.record_index == b.record_index &&
           a.voltage_index == b.voltage_index &&
           a.rep_index == b.rep_index && a.seed == b.seed;
  };

  const std::vector<WorkItem> items = expand(spec);
  ASSERT_EQ(items.size(), 36u);
  std::size_t index = 0;
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t v = 0; v < 3; ++v) {
      for (std::size_t rep = 0; rep < 4; ++rep, ++index) {
        const WorkItem want{index, r, v, rep, util::mix64(spec.seed, index)};
        EXPECT_TRUE(same(work_item(spec, index), want)) << index;
        EXPECT_TRUE(same(items[index], want)) << index;
      }
    }
  }
  for (std::size_t shard = 0; shard < 5; ++shard) {
    const std::vector<WorkItem> mine = expand_shard(spec, shard, 5);
    EXPECT_EQ(mine.size(), shard == 0 ? 8u : 7u);
    for (const WorkItem& item : mine) {
      EXPECT_EQ(item.index % 5, shard);
      EXPECT_TRUE(same(item, items[item.index])) << item.index;
    }
  }
  for (const WorkItem& item : expand_range(spec, 13, 29)) {
    EXPECT_TRUE(same(item, items[item.index])) << item.index;
  }
}

TEST(CampaignSpec, NormalizeFillsDefaults) {
  const CampaignSpec spec = CampaignSpec{}.normalized();
  EXPECT_EQ(spec.apps, apps::paper_app_names());
  EXPECT_EQ(spec.emts, core::paper_emt_names());
  EXPECT_EQ(spec.voltages.size(), 9u);
  EXPECT_EQ(spec.records.size(), 1u);
  EXPECT_GE(spec.repetitions, 1u);
  EXPECT_EQ(spec.ber_model, "log-linear");

  // The record geometry has no default to fall back on: a value that
  // sizes no record is rejected, naming its field.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::pair<const char*, double> bad_geometry[] = {
      {"fs_hz", 0.0},        {"fs_hz", -250.0},   {"fs_hz", kNan},
      {"fs_hz", kInf},       {"duration_s", 0.0}, {"duration_s", kNan}};
  for (const auto& [field, value] : bad_geometry) {
    SCOPED_TRACE(testing::Message() << field << " = " << value);
    CampaignSpec bad;
    (std::string(field) == "fs_hz" ? bad.fs_hz : bad.duration_s) = value;
    try {
      (void)bad.normalized();
      ADD_FAILURE() << "no std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
}

TEST(CampaignSpec, RejectsGridsWhoseItemCountOverflows) {
  // 4 x 2^62 wraps std::size_t to 0; 1 x 1 x (2^64 - 1) — what a
  // negative --reps becomes — fits std::size_t but no item list can hold
  // it. Either would otherwise run out of memory or loop inside expand().
  CampaignSpec wraps;
  wraps.voltages = {0.6, 0.7, 0.8, 0.9};
  wraps.repetitions = std::size_t{1} << 62;
  CampaignSpec huge;
  huge.voltages = {0.9};
  huge.repetitions = std::numeric_limits<std::size_t>::max();
  for (const CampaignSpec& spec : {wraps, huge}) {
    SCOPED_TRACE(testing::Message() << "repetitions=" << spec.repetitions);
    try {
      (void)spec.normalized();
      ADD_FAILURE() << "no std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("repetitions"), std::string::npos) << what;
      const std::string factors = "1 x " +
                                  std::to_string(spec.voltages.size()) +
                                  " x " + std::to_string(spec.repetitions);
      EXPECT_NE(what.find(factors), std::string::npos) << what;
    }
  }
}

TEST(CampaignSpec, VoltageRangeSnapsGridPoints) {
  const auto v = CampaignSpec::voltage_range(0.5, 0.9, 0.05);
  ASSERT_EQ(v.size(), 9u);
  EXPECT_EQ(v.front(), 0.5);
  EXPECT_EQ(v[6], 0.8);  // no accumulated +=step drift
  EXPECT_EQ(v.back(), 0.9);
}

/// Expects normalized() to throw std::invalid_argument whose message
/// holds `needle`.
::testing::AssertionResult rejected_naming(const CampaignSpec& spec,
                                           const std::string& needle) {
  try {
    (void)spec.normalized();
  } catch (const std::invalid_argument& e) {
    if (std::string(e.what()).find(needle) != std::string::npos) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "message lacks '" << needle << "': " << e.what();
  }
  return ::testing::AssertionFailure() << "no std::invalid_argument";
}

TEST(CampaignSpec, RejectsRepeatedAxisValues) {
  // A row is keyed by (record, app, EMT, voltage), so a repeated axis
  // value would give two rows one key: rejected, naming axis and value.
  CampaignSpec base;
  base.apps = {"dwt"};
  base.emts = {"dream"};
  base.voltages = {0.7};
  base.repetitions = 1;
  const RecordAxis sinus{ecg::Pathology::kNormalSinus, 1.0, 7};

  CampaignSpec apps = base;
  apps.apps = {"dwt", "cs", "dwt"};
  EXPECT_TRUE(rejected_naming(apps, "app 'dwt' is repeated"));
  CampaignSpec emts = base;
  emts.emts = {"dream", "dream"};
  EXPECT_TRUE(rejected_naming(emts, "emt 'dream' is repeated"));
  CampaignSpec records = base;
  records.records = {sinus, RecordAxis{ecg::Pathology::kBradycardia, 1.0, 7},
                     sinus};
  EXPECT_TRUE(
      rejected_naming(records, "record 'normal_sinus_n1_s7' is repeated"));
  CampaignSpec voltages = base;
  voltages.voltages = {0.7, 0.6, 0.7};
  EXPECT_TRUE(rejected_naming(voltages, "voltage '0.7' is repeated"));
  // Two points find_row cannot tell apart: a range snapped onto one
  // voltage, and two voltages under 1e-6 V apart.
  CampaignSpec snapped = base;
  snapped.voltages = CampaignSpec::voltage_range(0.5, 0.5000000001, 1e-10);
  ASSERT_EQ(snapped.voltages.size(), 2u);
  EXPECT_TRUE(rejected_naming(snapped, "voltage '0.5' is repeated"));
  CampaignSpec close = base;
  close.voltages = {0.8, 0.5000009, 0.5};
  EXPECT_TRUE(rejected_naming(
      close, "voltage '0.5' is repeated (as 0.5000009, closer than 1e-06 V)"));

  // Records differing only in noise or seed are distinct rows, and so are
  // voltages 2e-6 V apart.
  CampaignSpec distinct = base;
  distinct.records = {sinus, RecordAxis{ecg::Pathology::kNormalSinus, 2.0, 7},
                      RecordAxis{ecg::Pathology::kNormalSinus, 1.0, 8}};
  distinct.voltages = {0.5, 0.500002};
  EXPECT_NO_THROW((void)distinct.normalized());
}

TEST(CampaignSpec, RejectsNonFiniteVoltagesAndNoiseScales) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // voltage_range names the bound or step; a NaN passed its ordering
  // test and was then cast to a point count.
  const std::tuple<double, double, double, const char*> ranges[] = {
      {kNan, 0.9, 0.05, "vmin = nan"},  {0.5, kNan, 0.05, "vmax = nan"},
      {0.5, 0.9, kNan, "step = nan"},   {-kInf, 0.9, 0.05, "vmin = -inf"},
      {0.5, kInf, 0.05, "vmax = inf"},  {0.5, 0.9, kInf, "step = inf"}};
  for (const auto& [vmin, vmax, step, needle] : ranges) {
    try {
      (void)CampaignSpec::voltage_range(vmin, vmax, step);
      ADD_FAILURE() << needle << ": no std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
  }
  // Finite bounds whose point count overflows.
  EXPECT_THROW((void)CampaignSpec::voltage_range(-1e308, 1e308, 1e-300),
               std::invalid_argument);

  CampaignSpec base;
  base.apps = {"dwt"};
  base.emts = {"dream"};
  base.repetitions = 1;
  for (const double v : {kNan, kInf, -kInf}) {
    CampaignSpec spec = base;
    spec.voltages = {0.7, v};
    EXPECT_TRUE(rejected_naming(spec, "voltage = ")) << v;
  }
  for (const double noise : {kNan, kInf}) {
    CampaignSpec spec = base;
    spec.voltages = {0.7};
    spec.records = {RecordAxis{ecg::Pathology::kNormalSinus, noise, 7}};
    EXPECT_TRUE(rejected_naming(spec, "noise_scale of record normal_sinus_n"))
        << noise;
  }
}

TEST(CampaignSpec, ParsesAxisLists) {
  const auto apps = parse_app_list("dwt,cs");
  ASSERT_EQ(apps.size(), 2u);
  EXPECT_EQ(apps[0], "dwt");
  EXPECT_EQ(apps[1], "cs");
  EXPECT_EQ(parse_emt_list("paper"), core::paper_emt_names());
  EXPECT_EQ(parse_pathology_list("afib").front(),
            ecg::Pathology::kAtrialFib);
  EXPECT_THROW((void)parse_app_list("fft"), std::invalid_argument);
  EXPECT_THROW((void)parse_emt_list("raid5"), std::invalid_argument);
  EXPECT_THROW((void)parse_pathology_list("flu"), std::invalid_argument);
}

TEST(CampaignRun, BitIdenticalAcrossThreadCounts) {
  const CampaignSpec spec = tiny_spec();
  const auto baseline = run(spec, 1).aggregate();
  for (const unsigned threads : {4u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    expect_rows_identical(baseline, run(spec, threads).aggregate());
  }
}

// Regression: generate_record names records <pathology>_s<seed>, which
// collides for axes differing only in noise level; the session must rename
// records to their (unique) axis label, or the runner's name-keyed
// reference cache scores one record against the other's golden reference.
TEST(CampaignRun, RecordsDifferingOnlyInNoiseKeepTheirOwnReferences) {
  CampaignSpec spec;
  spec.apps = {"dwt"};
  spec.emts = {"none"};
  spec.voltages = {0.9};  // nominal: essentially error-free
  spec.records = {RecordAxis{ecg::Pathology::kNormalSinus, 1.0, 7},
                  RecordAxis{ecg::Pathology::kNormalSinus, 2.0, 7}};
  spec.repetitions = 1;
  spec = spec.normalized();

  const ResultStore store = run(spec, 1);
  const auto rows = store.aggregate();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_NE(rows[0].record, rows[1].record);
  // A clean run scored against its *own* reference sits near the
  // quantization ceiling for both records; against the other record's
  // reference it collapses to the noise-difference floor.
  EXPECT_GT(rows[0].snr_mean_db, 40.0);
  EXPECT_GT(rows[1].snr_mean_db, 40.0);
  // The clean-run ceilings come from distinct references too.
  EXPECT_NE(store.max_snr_db(0, 0), store.max_snr_db(1, 0));
}

TEST(CampaignRun, ShardSplitsMergeToTheFullStore) {
  const CampaignSpec spec = tiny_spec();
  const auto full = run(spec, 4).aggregate();

  for (const std::size_t splits : {2u, 3u}) {
    SCOPED_TRACE(testing::Message() << "splits=" << splits);
    std::vector<ResultStore> shards;
    for (std::size_t i = 0; i < splits; ++i) {
      shards.push_back(run(spec, 4, Shard{i, splits}));
      EXPECT_FALSE(shards.back().complete());
    }
    // Merge in reverse order to show order-independence.
    ResultStore merged(spec);
    for (std::size_t i = splits; i-- > 0;) merged.merge(shards[i]);
    ASSERT_TRUE(merged.complete());
    expect_rows_identical(full, merged.aggregate());
  }
}

TEST(CampaignRun, RawStoreSaveLoadRoundTripsAcrossProcessesShape) {
  const CampaignSpec spec = tiny_spec();
  // Simulate the CLI's cross-process shard workflow: each shard saves its
  // raw store to a file; a fresh merge "process" reopens and merges.
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < 2; ++i) {
    paths.push_back(temp_store_path());
    run(spec, 4, Shard{i, 2}).save_columnar(paths.back());
  }
  ResultStore merged(spec);
  for (const std::string& path : paths) {
    merged.merge(ColumnarStore::open(path, spec).materialize());
    std::filesystem::remove(path);
  }
  ASSERT_TRUE(merged.complete());
  expect_rows_identical(run(spec, 4).aggregate(), merged.aggregate());
}

TEST(ResultStore, ShardStoresAreSparseAndScaleWithTheirSlice) {
  const CampaignSpec spec = tiny_spec();
  const std::size_t total = spec.item_count();

  const ResultStore shard = run(spec, 2, Shard{0, 3});
  // Memory is keyed by the shard's items, not the whole grid.
  EXPECT_LT(shard.stored_items(), total);
  EXPECT_EQ(shard.stored_items(), shard.items_done());
  EXPECT_FALSE(shard.complete());

  // Loading a shard's save materializes only that shard's items.
  const std::string path = temp_store_path();
  shard.save_columnar(path);
  const ResultStore loaded = ColumnarStore::open(path, spec).materialize();
  std::filesystem::remove(path);
  EXPECT_EQ(loaded.stored_items(), shard.stored_items());
  EXPECT_EQ(loaded.items_done(), shard.items_done());

  // An empty merge target starts with no slots at all and grows only as
  // shards fold in.
  ResultStore merged(spec);
  EXPECT_EQ(merged.stored_items(), 0u);
  merged.merge(shard);
  EXPECT_EQ(merged.stored_items(), shard.stored_items());
}

TEST(ResultStore, RecordItemRejectsOutOfRangeIndex) {
  const CampaignSpec spec = tiny_spec();
  ResultStore store(spec);
  WorkItem bogus;
  bogus.index = spec.item_count();
  const std::vector<Sample> samples(spec.apps.size() * spec.emts.size());
  EXPECT_THROW(store.record_item(bogus, samples), std::invalid_argument);
  WorkItem first;
  first.index = 0;
  EXPECT_THROW(store.record_item(first, {}), std::invalid_argument);
  EXPECT_NO_THROW(store.record_item(first, samples));
  EXPECT_EQ(store.items_done(), 1u);
}

TEST(ResultStore, MergeAndLoadRejectSpecMismatch) {
  const CampaignSpec spec = tiny_spec();
  CampaignSpec other = spec;
  other.seed += 1;
  EXPECT_THROW(ResultStore(spec).merge(ResultStore(other.normalized())),
               std::invalid_argument);

  const std::string path = temp_store_path();
  ResultStore(spec).save_columnar(path);
  EXPECT_THROW((void)ColumnarStore::open(path, other), StoreError);
  std::filesystem::remove(path);
}

TEST(ResultStore, AggregateRequiresCompleteStore) {
  const CampaignSpec spec = tiny_spec();
  const ResultStore partial = run(spec, 2, Shard{0, 2});
  EXPECT_THROW((void)partial.aggregate(), std::logic_error);
}

TEST(ResultStore, GroupByMarginalizesUngroupedAxes) {
  const CampaignSpec spec = tiny_spec();
  const ResultStore store = run(spec, 4);

  GroupBy by_app;
  by_app.record = by_app.emt = by_app.voltage = false;
  const auto rows = store.aggregate(by_app);
  ASSERT_EQ(rows.size(), spec.apps.size());
  for (const AggregateRow& row : rows) {
    EXPECT_EQ(row.record, "*");
    EXPECT_EQ(row.emt, "*");
    EXPECT_TRUE(std::isnan(row.voltage));
    // Every sample of the app: items x emts.
    EXPECT_EQ(row.n, spec.item_count() * spec.emts.size());
  }
  EXPECT_EQ(rows[0].app, "dwt");
  EXPECT_EQ(rows[1].app, "morph_filter");
}

TEST(ResultStore, CsvRoundTripIsLossless) {
  const CampaignSpec spec = tiny_spec();
  const auto rows = run(spec, 4).aggregate();

  std::stringstream ss;
  write_rows_csv(ss, rows);
  expect_rows_identical(rows, read_rows_csv(ss));
}

TEST(ResultStore, CsvReaderRejectsMalformedCellsNamingRowAndColumn) {
  // read_rows_csv reads a daemon's answer, so a count must be a plain
  // unsigned integer: no sign, space or fraction, and it must fit.
  std::string header;
  for (const std::string& column : aggregate_csv_header()) {
    header += (header.empty() ? "" : ",") + column;
  }
  const auto csv = [&](const std::string& n, const std::string& snr) {
    return header + "\nr,a,e,0.5," + n + "," + snr +
           ",1,2,3,4,5,6,7,8,9,10,11,12\n";
  };
  const auto expect_rejected = [](const std::string& text,
                                   const std::string& column) {
    SCOPED_TRACE(text);
    std::istringstream is(text);
    try {
      (void)read_rows_csv(is);
      FAIL() << "accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("read_rows_csv: row 1, column " + column),
                std::string::npos)
          << what;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "not std::invalid_argument: " << e.what();
    }
  };
  for (const char* n : {"-1", "3.5", " 7", "+7", "", "x",
                        "99999999999999999999"}) {
    expect_rejected(csv(n, "0.25"), "n");
  }
  expect_rejected(csv("3", "fast"), "snr_mean_db");

  std::istringstream good(csv("18446744073709551615", "0.25"));
  const auto rows = read_rows_csv(good);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].n, std::numeric_limits<std::size_t>::max());
  EXPECT_EQ(rows[0].snr_mean_db, 0.25);
}

TEST(ResultStore, NonFiniteDoublesRoundTripThroughCsvAndJson) {
  // A perfectly reconstructed window has +Inf SNR (zero error power) and a
  // marginalized voltage is NaN, so non-finite values are reachable in real
  // exports. CSV carries the to_chars tokens (inf/-inf/nan) verbatim and
  // must survive write -> read; the JSON export — JSON has no non-finite
  // literals — must encode NaN as null and the infinities as the quoted
  // strings "inf"/"-inf".
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  AggregateRow row;
  row.record = "nsr_7";
  row.app = "dwt";
  row.emt = "none";
  row.voltage = nan;  // marginalized
  row.n = 3;
  row.snr_mean_db = inf;
  row.snr_stddev_db = nan;
  row.snr_min_db = -inf;
  row.snr_max_db = inf;
  row.snr_p10_db = inf;
  row.energy_mean_j = 1.25e-6;
  const std::vector<AggregateRow> rows = {row};

  auto check = [&](const std::vector<AggregateRow>& back) {
    ASSERT_EQ(back.size(), 1u);
    EXPECT_TRUE(std::isnan(back[0].voltage));
    EXPECT_EQ(back[0].n, 3u);
    EXPECT_EQ(back[0].snr_mean_db, inf);
    EXPECT_TRUE(std::isnan(back[0].snr_stddev_db));
    EXPECT_EQ(back[0].snr_min_db, -inf);
    EXPECT_EQ(back[0].snr_max_db, inf);
    EXPECT_EQ(back[0].snr_p10_db, inf);
    EXPECT_EQ(back[0].energy_mean_j, 1.25e-6);
  };

  std::stringstream csv;
  write_rows_csv(csv, rows);
  check(read_rows_csv(csv));

  // The CSV bytes themselves: the to_chars tokens verbatim, "*" for the
  // marginalized voltage, and text cells quoted only when they hold a
  // separator, a quote or a newline (quotes doubled).
  AggregateRow quoted = row;
  quoted.record = "nsr,7";
  quoted.app = "say \"hi\"";
  quoted.emt = "two\nlines";
  quoted.voltage = 0.5;
  quoted.n = 12;
  quoted.snr_mean_db = -inf;
  quoted.corrected_mean = 0.1 + 0.2;
  std::stringstream both;
  write_rows_csv(both, {row, quoted});
  EXPECT_EQ(both.str(),
            "record,app,emt,voltage,n,snr_mean_db,snr_stddev_db,snr_min_db,"
            "snr_max_db,snr_p10_db,energy_mean_j,data_dynamic_j,"
            "side_dynamic_j,codec_j,data_leak_j,side_leak_j,corrected_mean,"
            "detected_mean\n"
            "nsr_7,dwt,none,*,3,inf,nan,-inf,inf,inf,1.25e-06,0,0,0,0,0,0,0\n"
            "\"nsr,7\",\"say \"\"hi\"\"\",\"two\nlines\",0.5,12,-inf,nan,-inf,"
            "inf,inf,1.25e-06,0,0,0,0,0,0.30000000000000004,0\n");
  const std::vector<AggregateRow> back = read_rows_csv(both);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[1].record, quoted.record);
  EXPECT_EQ(back[1].app, quoted.app);
  EXPECT_EQ(back[1].emt, quoted.emt);
  EXPECT_EQ(back[1].voltage, 0.5);
  EXPECT_EQ(back[1].n, 12u);
  EXPECT_EQ(back[1].snr_mean_db, -inf);
  EXPECT_EQ(back[1].corrected_mean, 0.1 + 0.2);

  std::stringstream json;
  write_rows_json(json, rows);
  const std::string text = json.str();
  // The document must be real JSON: every inf token is quoted, NaN is null.
  for (std::size_t at = text.find("inf"); at != std::string::npos;
       at = text.find("inf", at + 1)) {
    const char before = text[at - 1];
    EXPECT_TRUE(before == '"' || before == '-') << "bare inf at " << at;
    if (before == '-') {
      EXPECT_EQ(text[at - 2], '"') << "bare -inf at " << at;
    }
    EXPECT_EQ(text[at + 3], '"') << "unterminated inf token at " << at;
  }
  EXPECT_NE(text.find("\"voltage\":null"), std::string::npos);
  EXPECT_NE(text.find("\"snr_mean_db\":\"inf\""), std::string::npos);
  EXPECT_NE(text.find("\"snr_min_db\":\"-inf\""), std::string::npos);
  EXPECT_NE(text.find("\"snr_stddev_db\":null"), std::string::npos);

  // A finite row: every field is written, each double in its exact
  // shortest form (0.1 + 0.2 is 0.30000000000000004, which a rounding
  // writer would print as 0.3).
  AggregateRow finite;
  finite.record = "nsr_7";
  finite.app = "dwt";
  finite.emt = "dream";
  finite.voltage = 0.65;
  finite.n = 3;
  finite.snr_mean_db = 0.1 + 0.2;
  finite.snr_stddev_db = 1.0 / 3.0;
  finite.snr_min_db = -12.5;
  finite.snr_max_db = 45.0;
  finite.snr_p10_db = 7.25;
  finite.energy_mean_j = 1.25e-6;
  finite.data_dynamic_j = 1e-7;
  finite.side_dynamic_j = 2e-8;
  finite.codec_j = 3e-9;
  finite.data_leak_j = 4e-10;
  finite.side_leak_j = 5e-11;
  finite.corrected_mean = 2.5;
  finite.detected_mean = 0.125;
  std::stringstream finite_json;
  write_rows_json(finite_json, {finite});
  EXPECT_EQ(finite_json.str(),
            "{\"rows\":[\n"
            "{\"record\":\"nsr_7\",\"app\":\"dwt\",\"emt\":\"dream\","
            "\"voltage\":0.65,\"n\":3,\"snr_mean_db\":0.30000000000000004,"
            "\"snr_stddev_db\":0.3333333333333333,\"snr_min_db\":-12.5,"
            "\"snr_max_db\":45,\"snr_p10_db\":7.25,\"energy_mean_j\":1.25e-06,"
            "\"data_dynamic_j\":1e-07,\"side_dynamic_j\":2e-08,"
            "\"codec_j\":3e-09,\"data_leak_j\":4e-10,\"side_leak_j\":5e-11,"
            "\"corrected_mean\":2.5,\"detected_mean\":0.125}\n"
            "]}\n");
}

TEST(ResultStore, BridgesToThePolicyExplorer) {
  CampaignSpec spec = tiny_spec();
  spec.apps = {"dwt"};
  spec.voltages = {0.6, 0.7, 0.8, 0.9};  // policy needs the nominal point
  spec = spec.normalized();
  const ResultStore store = run(spec, 4);
  const std::vector<AggregateRow> rows = store.aggregate();

  const std::span<const AggregateRow> slice = app_slice(spec, rows, 1, 0);
  EXPECT_EQ(slice.size(), spec.voltages.size() * spec.emts.size());
  ASSERT_NE(find_row(slice, "dream", 0.8), nullptr);
  EXPECT_EQ(find_row(slice, "dream", 0.8)->app, "dwt");
  EXPECT_EQ(find_row(slice, "dream", 0.8)->record, spec.records[1].label());
  EXPECT_EQ(find_row(slice, "dream", 0.75), nullptr);

  const PolicyResult policy =
      explore_policy(slice, store.max_snr_db(1, 0), 1.0);
  EXPECT_EQ(policy.points.size(), spec.emts.size());
  EXPECT_GT(policy.nominal_energy_j, 0.0);
  EXPECT_DOUBLE_EQ(policy.required_snr_db, store.max_snr_db(1, 0) - 1.0);
}

TEST(ResultStore, AppSliceIsTheRecordAppBlockOfTheRows) {
  // Two records x two apps: each (record, app) slice of the full-GroupBy
  // rows holds that record's and app's cells, EMT-major with the voltage
  // varying fastest. A partial row list or a bad index is rejected.
  const CampaignSpec spec = tiny_spec();
  const std::vector<AggregateRow> rows = run(spec, 4).aggregate();
  for (std::size_t ri = 0; ri < spec.records.size(); ++ri) {
    for (std::size_t ai = 0; ai < spec.apps.size(); ++ai) {
      const std::span<const AggregateRow> slice = app_slice(spec, rows, ri, ai);
      ASSERT_EQ(slice.size(), spec.emts.size() * spec.voltages.size());
      std::size_t next = 0;
      for (const std::string& emt : spec.emts) {
        for (const double v : spec.voltages) {
          const AggregateRow& row = slice[next++];
          EXPECT_EQ(row.record, spec.records[ri].label());
          EXPECT_EQ(row.app, spec.apps[ai]);
          EXPECT_EQ(row.emt, emt);
          EXPECT_EQ(row.voltage, v);
          EXPECT_EQ(find_row(slice, emt, v), &row);
        }
      }
    }
  }
  const std::span<const AggregateRow> all(rows);
  EXPECT_THROW((void)app_slice(spec, all.first(rows.size() - 1), 0, 0),
               std::invalid_argument);
  EXPECT_THROW((void)app_slice(spec, rows, spec.records.size(), 0),
               std::invalid_argument);
  EXPECT_THROW((void)app_slice(spec, rows, 0, spec.apps.size()),
               std::invalid_argument);
}

}  // namespace
}  // namespace ulpdream::campaign
