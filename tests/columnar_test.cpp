// The out-of-core columnar persistence contract: a columnar store must
// reproduce the in-memory store's samples and aggregates bit-identically
// through its one bounded reader (block scans across block boundaries
// and cache eviction, and the per-entry fallback for the permuted index
// of legacy verbatim merges), every merge strategy (in-memory vs append,
// any shard order; an append writes the single-process bytes) and a
// checkpoint round trip — and every malformed, truncated, mismatched or
// foreign file must fail with a typed StoreError naming the path, never
// an out-of-bounds read.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ulpdream/campaign/columnar.hpp"
#include "ulpdream/campaign/result_store.hpp"
#include "ulpdream/campaign/spec.hpp"
#include "ulpdream/util/file_view.hpp"

namespace ulpdream::campaign {
namespace {

namespace fs = std::filesystem;

/// Grid with every axis > 1 so grouping is exercised: 2 apps x 2 EMTs x
/// 2 voltages x 2 records x 2 reps = 8 items, 4 samples per item. Names
/// never resolve against the registries (nothing executes here).
CampaignSpec test_spec(std::uint64_t seed = 99) {
  CampaignSpec spec;
  spec.apps = {"a0", "a1"};
  spec.emts = {"e0", "e1"};
  spec.voltages = {0.6, 0.8};
  spec.records = {RecordAxis{ecg::Pathology::kNormalSinus, 1.0, 7},
                  RecordAxis{ecg::Pathology::kAtrialFib, 1.25, 11}};
  spec.repetitions = 2;
  spec.seed = seed;
  return spec.normalized();
}

Sample synthetic_sample(std::size_t item, std::size_t k) {
  const auto mix = [](std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
  };
  const std::uint64_t h = mix(item * 11400714819323198485ULL + k + 1);
  Sample s;
  s.snr_db = static_cast<double>(h & 0xFFFF) / 256.0 - 100.0;
  s.energy.data_dynamic_j = static_cast<double>((h >> 8) & 0xFFFF) * 1e-9;
  s.energy.side_dynamic_j = static_cast<double>((h >> 16) & 0xFFFF) * 1e-9;
  s.energy.codec_j = static_cast<double>((h >> 24) & 0xFFFF) * 1e-10;
  s.energy.data_leak_j = static_cast<double>((h >> 32) & 0xFFFF) * 1e-10;
  s.energy.side_leak_j = static_cast<double>((h >> 40) & 0xFFFF) * 1e-10;
  s.corrected_words = static_cast<double>((h >> 48) & 0xFF);
  s.detected_uncorrectable = static_cast<double>((h >> 56) & 0x3);
  return s;
}

/// Fills items i of [0, item_count) with i % stride == phase. `salt`
/// perturbs the synthetic values — overlapping shards filled with
/// different salts hold *different* bytes for the shared items, which is
/// what makes merge-dedup order observable.
void fill(ResultStore& store, std::size_t stride = 1, std::size_t phase = 0,
          std::size_t salt = 0) {
  const CampaignSpec& spec = store.spec();
  const std::size_t per_item = spec.apps.size() * spec.emts.size();
  std::vector<Sample> samples(per_item);
  for (std::size_t i = phase; i < spec.item_count(); i += stride) {
    for (std::size_t k = 0; k < per_item; ++k) {
      samples[k] = synthetic_sample(i, k + salt * 1000);
    }
    WorkItem item;
    item.index = i;
    store.record_item(item, samples);
  }
  for (std::size_t r = 0; r < spec.records.size(); ++r) {
    for (std::size_t a = 0; a < spec.apps.size(); ++a) {
      store.set_max_snr(r, a, 30.0 + static_cast<double>(r * 10 + a));
    }
  }
}

ResultStore full_store(const CampaignSpec& spec) {
  ResultStore store(spec);
  fill(store);
  return store;
}

void expect_rows_identical(const std::vector<AggregateRow>& a,
                           const std::vector<AggregateRow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "row " << i);
    EXPECT_EQ(a[i].record, b[i].record);
    EXPECT_EQ(a[i].app, b[i].app);
    EXPECT_EQ(a[i].emt, b[i].emt);
    // Voltage is NaN when marginalized; NaN == NaN is false, so compare
    // NaN-ness first.
    if (std::isnan(a[i].voltage) || std::isnan(b[i].voltage)) {
      EXPECT_TRUE(std::isnan(a[i].voltage) && std::isnan(b[i].voltage));
    } else {
      EXPECT_EQ(a[i].voltage, b[i].voltage);
    }
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

/// RAII temp dir for store files.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("ulpdream_columnar_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name());
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The save_columnar bytes of `store`, staged in `dir`. Saves are
/// byte-deterministic, so equal bytes mean sample-level bit equality.
std::string save_bytes(const ResultStore& store, const TempDir& dir) {
  static int sequence = 0;
  const std::string path =
      dir.file("bytes" + std::to_string(sequence++) + ".col");
  store.save_columnar(path);
  return read_file(path);
}

// ---------------------------------------------------------------------------
// Round trip and in-memory identity.

TEST(Columnar, RoundTripPreservesEveryItemSampleAndCeiling) {
  const CampaignSpec spec = test_spec();
  const ResultStore store = full_store(spec);
  TempDir dir;
  const std::string path = dir.file("full.col");
  store.save_columnar(path);

  const ColumnarStore col = ColumnarStore::open(path, spec);
  EXPECT_EQ(col.stored_items(), spec.item_count());
  EXPECT_EQ(col.items_done(), spec.item_count());
  EXPECT_TRUE(col.complete());
  for (std::size_t i = 0; i < spec.item_count(); ++i) {
    EXPECT_TRUE(col.item_done(i)) << "item " << i;
  }
  EXPECT_FALSE(col.item_done(spec.item_count() + 5));
  for (std::size_t r = 0; r < spec.records.size(); ++r) {
    for (std::size_t a = 0; a < spec.apps.size(); ++a) {
      EXPECT_EQ(col.max_snr_db(r, a), store.max_snr_db(r, a));
    }
  }

  // Materialize reproduces the exact store: it saves to the same bytes
  // (sample-level bit equality, not just aggregate equality).
  EXPECT_EQ(save_bytes(col.materialize(), dir), read_file(path));
}

TEST(Columnar, AggregateIsBitIdenticalToTheInMemoryPathForEveryGrouping) {
  const CampaignSpec spec = test_spec();
  const ResultStore store = full_store(spec);
  TempDir dir;
  const std::string path = dir.file("full.col");
  store.save_columnar(path);
  const ColumnarStore col = ColumnarStore::open(path, spec);

  const std::vector<GroupBy> groupings = {
      GroupBy{},                           // full grid
      GroupBy{false, true, true, true},    // record marginalized
      GroupBy{true, false, false, true},   // app+emt marginalized
      GroupBy{false, false, false, false}  // grand total
  };
  for (std::size_t g = 0; g < groupings.size(); ++g) {
    SCOPED_TRACE(testing::Message() << "grouping " << g);
    expect_rows_identical(col.aggregate(groupings[g]),
                          store.aggregate(groupings[g]));
  }
}

TEST(Columnar, SaveIsByteDeterministic) {
  const CampaignSpec spec = test_spec();
  const ResultStore store = full_store(spec);
  TempDir dir;
  store.save_columnar(dir.file("a.col"));
  store.save_columnar(dir.file("b.col"));
  const std::string a = read_file(dir.file("a.col"));
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, read_file(dir.file("b.col")));
  // No staging file survives a successful publish.
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp"),
              std::string::npos)
        << entry.path();
  }
}

TEST(Columnar, FailedSaveLeavesNoPartialOrStagingFile) {
  const CampaignSpec spec = test_spec();
  const ResultStore store = full_store(spec);
  TempDir dir;
  const std::string bad = dir.file("missing_subdir/out.col");
  EXPECT_THROW(store.save_columnar(bad), std::runtime_error);
  EXPECT_FALSE(fs::exists(bad));
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp"),
              std::string::npos)
        << entry.path();
  }
}

// ---------------------------------------------------------------------------
// The reader: block scans, cache eviction, the legacy per-entry fallback.

TEST(Columnar, LargeStoreAcrossScanBlocksAndCacheEvictionMatchesInMemory) {
  // An odd item count spans several scan blocks and ends in a partial one
  // for any power-of-two block size, and the file is larger than the
  // reader's whole chunk cache, so every scan evicts.
  CampaignSpec spec = test_spec();
  spec.voltages = {0.6};
  spec.records.resize(1);
  spec.repetitions = 18001;
  spec = spec.normalized();
  const ResultStore store = full_store(spec);
  TempDir dir;
  const std::string path = dir.file("large.col");
  store.save_columnar(path);
  ASSERT_GT(fs::file_size(path), util::ChunkedFileReader::kChunkBytes *
                                     util::ChunkedFileReader::kMaxChunks);

  const ColumnarStore col = ColumnarStore::open(path, spec);
  EXPECT_EQ(col.items_done(), spec.item_count());
  expect_rows_identical(col.aggregate(), store.aggregate());
  EXPECT_EQ(save_bytes(col.materialize(), dir), read_file(path));
  std::vector<Sample> samples;
  col.samples_at(spec.item_count() - 1, samples);
  const auto want = store.slot_samples(spec.item_count() - 1);
  ASSERT_EQ(samples.size(), want.size());
  EXPECT_EQ(std::memcmp(samples.data(), want.data(), want.size_bytes()), 0);

  // Strided shards of the same store append back to its exact bytes.
  std::vector<std::string> shards;
  for (std::size_t s = 0; s < 3; ++s) {
    ResultStore shard(spec);
    fill(shard, 3, s);
    shards.push_back(dir.file("shard" + std::to_string(s) + ".col"));
    shard.save_columnar(shards.back());
  }
  ColumnarStore::append_merge(shards, dir.file("merged.col"), spec);
  EXPECT_EQ(read_file(dir.file("merged.col")), read_file(path));
}

/// The grid of the committed legacy fixture (tests/legacy_store), built
/// the way `campaign --apps dwt,cs --emts none,dream --vmin 0.6 --vmax
/// 0.8 --step 0.1 --reps 3` builds it.
CampaignSpec legacy_spec() {
  CampaignSpec spec;
  spec.apps = parse_app_list("dwt,cs");
  spec.emts = parse_emt_list("none,dream");
  spec.voltages = CampaignSpec::voltage_range(0.6, 0.8, 0.1);
  spec.records = {RecordAxis{ecg::Pathology::kNormalSinus, 1.0, 7}};
  spec.repetitions = 3;
  spec.seed = 2016;
  spec.ber_model = "log-linear";
  return spec.normalized();
}

TEST(Columnar, LegacyVerbatimMergesReadLikeTheSingleProcessStore) {
  const CampaignSpec spec = legacy_spec();
  const std::string fixtures = ULPDREAM_LEGACY_STORE_DIR;
  const std::string single_path = fixtures + "/single.ulpdcol";
  const ResultStore single =
      ColumnarStore::open(single_path, spec).materialize();
  TempDir dir;
  for (const char* name :
       {"verbatim_merge.ulpdcol", "verbatim_overlap.ulpdcol"}) {
    SCOPED_TRACE(name);
    const ColumnarStore legacy =
        ColumnarStore::open(fixtures + "/" + name, spec);
    EXPECT_TRUE(legacy.complete());
    expect_rows_identical(legacy.aggregate(), single.aggregate());
    EXPECT_EQ(save_bytes(legacy.materialize(), dir), read_file(single_path));
    // Appending a legacy file rewrites it in the one layout.
    ColumnarStore::append_merge({fixtures + "/" + name},
                                dir.file("rewritten.col"), spec);
    EXPECT_EQ(read_file(dir.file("rewritten.col")), read_file(single_path));
  }
}

// ---------------------------------------------------------------------------
// Merge strategies and orders.

TEST(Columnar, AppendMergeMatchesInMemoryMergeInEveryShardOrder) {
  const CampaignSpec spec = test_spec();
  const ResultStore reference = full_store(spec);
  const auto reference_rows = reference.aggregate();
  TempDir dir;

  // Four strided shards, saved columnar.
  constexpr std::size_t kShards = 4;
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < kShards; ++s) {
    ResultStore shard(spec);
    fill(shard, kShards, s);
    paths.push_back(dir.file("shard" + std::to_string(s) + ".col"));
    shard.save_columnar(paths.back());
  }

  const std::vector<std::vector<std::size_t>> orders = {
      {0, 1, 2, 3}, {3, 2, 1, 0}, {2, 0, 3, 1}};
  for (std::size_t o = 0; o < orders.size(); ++o) {
    SCOPED_TRACE(testing::Message() << "order " << o);
    std::vector<std::string> ordered;
    for (const std::size_t s : orders[o]) ordered.push_back(paths[s]);
    const std::string merged_path =
        dir.file("merged" + std::to_string(o) + ".col");
    ColumnarStore::append_merge(ordered, merged_path, spec);
    const ColumnarStore merged = ColumnarStore::open(merged_path, spec);
    EXPECT_TRUE(merged.complete());
    expect_rows_identical(merged.aggregate(), reference_rows);
    // The appended file is the single-process save, byte for byte.
    EXPECT_EQ(read_file(merged_path), save_bytes(reference, dir));
  }
}

TEST(Columnar, AppendMergeDeduplicatesOverlapsFirstDoneWins) {
  const CampaignSpec spec = test_spec();
  TempDir dir;

  // Shards overlap on every even item and hold *different* bytes for
  // them (different salt), so which duplicate survives is observable;
  // in-memory merge semantics (first done occurrence wins) are the
  // contract append must match.
  ResultStore a(spec);
  fill(a, 2, 0);  // even items
  ResultStore b(spec);
  fill(b, 1, 0, /*salt=*/7);  // all items, different values
  a.save_columnar(dir.file("a.col"));
  b.save_columnar(dir.file("b.col"));

  ResultStore in_memory(spec);
  in_memory.merge(a);
  in_memory.merge(b);

  ColumnarStore::append_merge({dir.file("a.col"), dir.file("b.col")},
                              dir.file("merged.col"), spec);
  const ColumnarStore merged =
      ColumnarStore::open(dir.file("merged.col"), spec);
  EXPECT_EQ(merged.items_done(), spec.item_count());
  EXPECT_EQ(read_file(dir.file("merged.col")), save_bytes(in_memory, dir));
}

// ---------------------------------------------------------------------------
// Malformed-file hardening. Every case must throw StoreError naming the
// path — never crash, never read past the end of the file.

/// Expects ColumnarStore::open to throw StoreError whose message names
/// the file.
void expect_open_fails(const std::string& path, const CampaignSpec& spec) {
  try {
    (void)ColumnarStore::open(path, spec);
    FAIL() << "expected StoreError for " << path;
  } catch (const StoreError& e) {
    EXPECT_EQ(e.path(), path);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

TEST(ColumnarHardening, TruncationAtEveryRegionFailsTyped) {
  const CampaignSpec spec = test_spec();
  TempDir dir;
  const std::string good_path = dir.file("good.col");
  full_store(spec).save_columnar(good_path);
  const std::string good = read_file(good_path);
  ASSERT_GT(good.size(), 64u);

  // Cut in the fixed header, in the index, mid-column and one byte short.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{10}, std::size_t{63}, std::size_t{64},
        good.size() / 2, good.size() - 1}) {
    SCOPED_TRACE(testing::Message() << "truncated to " << keep << " bytes");
    const std::string path = dir.file("trunc.col");
    write_file(path, good.substr(0, keep));
    expect_open_fails(path, spec);
  }
}

TEST(ColumnarHardening, BadMagicVersionAndEndiannessFailTyped) {
  const CampaignSpec spec = test_spec();
  TempDir dir;
  const std::string good = [&] {
    const std::string path = dir.file("good.col");
    full_store(spec).save_columnar(path);
    return read_file(path);
  }();

  std::string bad = good;
  bad[0] = 'X';  // magic
  write_file(dir.file("magic.col"), bad);
  expect_open_fails(dir.file("magic.col"), spec);

  bad = good;
  bad[8] = 99;  // version
  write_file(dir.file("version.col"), bad);
  expect_open_fails(dir.file("version.col"), spec);

  bad = good;
  std::swap(bad[12], bad[15]);  // endianness tag byte-reversed
  write_file(dir.file("endian.col"), bad);
  expect_open_fails(dir.file("endian.col"), spec);
}

TEST(ColumnarHardening, FingerprintMismatchNamesBothFingerprints) {
  const CampaignSpec spec = test_spec(99);
  TempDir dir;
  const std::string path = dir.file("store.col");
  full_store(spec).save_columnar(path);

  const CampaignSpec other = test_spec(100);  // different seed
  try {
    (void)ColumnarStore::open(path, other);
    FAIL() << "expected StoreError";
  } catch (const StoreError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("fingerprint"), std::string::npos) << what;
    EXPECT_NE(what.find(spec.fingerprint()), std::string::npos) << what;
    EXPECT_NE(what.find(other.fingerprint()), std::string::npos) << what;
  }
}

TEST(ColumnarHardening, CorruptDirectoryAndIndexFailTyped) {
  const CampaignSpec spec = test_spec();
  TempDir dir;
  const std::string good = [&] {
    const std::string path = dir.file("good.col");
    full_store(spec).save_columnar(path);
    return read_file(path);
  }();

  // Header size lied up: index/column layout no longer fits the file.
  std::string bad = good;
  bad[16] = static_cast<char>(static_cast<unsigned char>(bad[16]) ^ 0x40);
  write_file(dir.file("size.col"), bad);
  expect_open_fails(dir.file("size.col"), spec);

  // Appending junk makes the real size disagree with the header.
  write_file(dir.file("padded.col"), good + "garbage");
  expect_open_fails(dir.file("padded.col"), spec);

  // n_index inflated: the directory lengths disagree with the counts.
  bad = good;
  bad[24] = static_cast<char>(static_cast<unsigned char>(bad[24]) + 1);
  write_file(dir.file("count.col"), bad);
  expect_open_fails(dir.file("count.col"), spec);

  // Locate the index column (fingerprint + max_snr after the 64-byte
  // header, then n_columns + directory) and break its sort order.
  const CampaignSpec norm = spec.normalized();
  const std::size_t fp_pad = (norm.fingerprint().size() + 7) & ~7ull;
  const std::size_t msnr = norm.records.size() * norm.apps.size();
  const std::size_t index_off = 64 + fp_pad + 8 * msnr + 8 + 16 * 11;
  bad = good;
  // items are 0..15 as u64; swapping the first two bytes-of-8 swaps the
  // first two item entries' low bytes (0 <-> 1), breaking ascending order.
  std::swap(bad[index_off], bad[index_off + 8]);
  write_file(dir.file("unsorted.col"), bad);
  expect_open_fails(dir.file("unsorted.col"), spec);

  // An index entry pointing at an out-of-range physical slot.
  bad = good;
  const std::size_t slot_off = index_off + 8 * spec.item_count();
  bad[slot_off] = static_cast<char>(0xEE);
  write_file(dir.file("slot.col"), bad);
  expect_open_fails(dir.file("slot.col"), spec);
}

TEST(ColumnarHardening, UnsortedIndexAtAScanBlockBoundaryFailsTyped) {
  // Index validation runs block by block, so an order break between the
  // last entry of one block and the first of the next must still be
  // caught. Swapping entries j and j + 1 breaks the order at j + 1; the
  // swaps straddle the boundaries of 2,048-, 4,096- and 8,192-entry
  // blocks.
  CampaignSpec spec = test_spec();
  spec.repetitions = 2600;  // 10,400 items
  spec = spec.normalized();
  TempDir dir;
  const std::string good = [&] {
    const std::string path = dir.file("good.col");
    full_store(spec).save_columnar(path);
    return read_file(path);
  }();
  const std::size_t fp_pad = (spec.fingerprint().size() + 7) & ~7ull;
  const std::size_t msnr = spec.records.size() * spec.apps.size();
  const std::size_t index_off = 64 + fp_pad + 8 * msnr + 8 + 16 * 11;
  for (const std::size_t j : {2047u, 4095u, 8191u}) {
    SCOPED_TRACE(testing::Message() << "entries " << j << " and " << j + 1);
    std::string bad = good;
    const auto entry = [&](std::size_t k) {
      return bad.begin() + static_cast<std::ptrdiff_t>(index_off + 8 * k);
    };
    std::swap_ranges(entry(j), entry(j + 1), entry(j + 1));
    write_file(dir.file("unsorted.col"), bad);
    expect_open_fails(dir.file("unsorted.col"), spec);
  }
}

TEST(ColumnarHardening, ForeignAndMissingFilesFailTyped) {
  const CampaignSpec spec = test_spec();
  TempDir dir;

  write_file(dir.file("junk.bin"), "PNG\x89 definitely not a store");
  expect_open_fails(dir.file("junk.bin"), spec);
  write_file(dir.file("short.bin"), "abc");
  expect_open_fails(dir.file("short.bin"), spec);
  expect_open_fails(dir.file("absent.bin"), spec);

  // A store in the retired line-oriented text format is foreign too: its
  // first bytes are not the columnar magic.
  const std::string text_store = dir.file("run.store");
  write_file(text_store, "ulpdream-campaign-store v1\nfingerprint " +
                             spec.fingerprint() + "\nmax_snr 30 31 40 41\n" +
                             "end\n");
  expect_open_fails(text_store, spec);
  try {
    (void)ColumnarStore::open(text_store, spec);
    FAIL() << "expected StoreError";
  } catch (const StoreError& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos)
        << e.what();
  }
}

TEST(ColumnarHardening, AppendMergeRejectsEmptyInputsAndForeignStores) {
  const CampaignSpec spec = test_spec();
  TempDir dir;
  EXPECT_THROW(ColumnarStore::append_merge({}, dir.file("out.col"), spec),
               std::invalid_argument);

  // A fingerprint-mismatched shard poisons the whole merge, typed.
  full_store(spec).save_columnar(dir.file("good.col"));
  full_store(test_spec(1234)).save_columnar(dir.file("foreign.col"));
  EXPECT_THROW(
      ColumnarStore::append_merge(
          {dir.file("good.col"), dir.file("foreign.col")},
          dir.file("out.col"), spec),
      StoreError);
  EXPECT_FALSE(fs::exists(dir.file("out.col")));
}

}  // namespace
}  // namespace ulpdream::campaign
