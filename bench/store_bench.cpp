// Raw-store persistence benchmark and out-of-core smoke driver.
//
// Default mode times the columnar store's out-of-core path against its
// in-memory path on synthetic stores: save, open (reads the index only),
// materialize (copies every sample onto the heap), streaming aggregate,
// and merging shards by append vs in memory (materialize + merge +
// save). It emits machine-readable JSON (stdout, or --json FILE with a
// human summary on stderr) — the CI artifact BENCH_store.json.
// Self-timed, no external benchmark dependency, same shape as
// micro_codec --datapath.
//
//   store_bench --json BENCH_store.json            # 10^4 and 10^6 items
//   store_bench --items 200000 --per-item 4        # one custom size
//
// Tool modes (the CI large-store smoke is scripted from these; all share
// the synthetic spec of --items/--per-item/--seed):
//
//   # write N strided shard stores of a spec (items i with i%N == s):
//   store_bench --make-shards DIR --shards 4
//   # fold shards by append (out-of-core, bounded memory):
//   store_bench --append-merge OUT --inputs a.col,b.col,...
//   # fold shards in memory (materialize + ResultStore::merge + save):
//   store_bench --merge OUT --inputs a.col,b.col,...
//   # aggregate a store to CSV; --mode streaming never materializes and
//   # holds only an LRU chunk cache — it runs under an RSS cap the
//   # materializing mode cannot meet (peak RSS reported on stderr):
//   store_bench --aggregate PATH --mode streaming|materialize --csv OUT

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "ulpdream/campaign/columnar.hpp"
#include "ulpdream/campaign/result_store.hpp"
#include "ulpdream/campaign/spec.hpp"
#include "ulpdream/util/cli.hpp"
#include "ulpdream/util/table.hpp"

using namespace ulpdream;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident set in bytes (0 where getrusage is unavailable).
std::uint64_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

/// Synthetic campaign: `items` = repetitions of a 1-record, 1-voltage
/// grid; `per_item` = app count x 1 EMT. Axis names never resolve against
/// the registries because nothing here executes.
campaign::CampaignSpec synthetic_spec(std::size_t items,
                                      std::size_t per_item,
                                      std::uint64_t seed) {
  campaign::CampaignSpec spec;
  for (std::size_t a = 0; a < per_item; ++a) {
    spec.apps.push_back("app" + std::to_string(a));
  }
  spec.emts = {"none"};
  spec.voltages = {0.6};
  spec.records = {campaign::RecordAxis{ecg::Pathology::kNormalSinus, 1.0, 7}};
  spec.repetitions = items;
  spec.seed = seed;
  return spec.normalized();
}

/// Deterministic synthetic sample — pure integer mixing, so every
/// process (shard writers, both aggregate legs) derives the same bytes.
campaign::Sample synthetic_sample(std::size_t item, std::size_t k,
                                  std::uint64_t seed) {
  const auto mix = [](std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return x;
  };
  const std::uint64_t h = mix(seed ^ mix(item * 11400714819323198485ULL + k));
  const auto unit = [&](unsigned shift) {
    return static_cast<double>((h >> shift) & 0xFFFFF) / 1048576.0;
  };
  campaign::Sample s;
  s.snr_db = 40.0 * unit(0) - 10.0;
  s.energy.data_dynamic_j = 1e-6 * unit(4);
  s.energy.side_dynamic_j = 1e-6 * unit(8);
  s.energy.codec_j = 1e-7 * unit(12);
  s.energy.data_leak_j = 1e-7 * unit(16);
  s.energy.side_leak_j = 1e-7 * unit(20);
  s.corrected_words = static_cast<double>((h >> 24) & 0xFF);
  s.detected_uncorrectable = static_cast<double>((h >> 32) & 0x3);
  return s;
}

/// Fills `store` with the synthetic samples of every item i in
/// [0, items) with i % stride == phase (stride 1 = the whole grid).
void fill_store(campaign::ResultStore& store, std::size_t items,
                std::size_t stride, std::size_t phase) {
  const campaign::CampaignSpec& spec = store.spec();
  const std::size_t per_item = spec.apps.size() * spec.emts.size();
  std::vector<campaign::Sample> samples(per_item);
  for (std::size_t i = phase; i < items; i += stride) {
    for (std::size_t k = 0; k < per_item; ++k) {
      samples[k] = synthetic_sample(i, k, spec.seed);
    }
    campaign::WorkItem item;
    item.index = i;
    store.record_item(item, samples);
  }
  for (std::size_t a = 0; a < spec.apps.size(); ++a) {
    store.set_max_snr(0, a, 42.0 + static_cast<double>(a));
  }
}

std::uint64_t file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  return is ? static_cast<std::uint64_t>(is.tellg()) : 0;
}

// ---------------------------------------------------------------------------
// Benchmark mode.

struct StoreTimings {
  std::uint64_t bytes = 0;
  double save_s = 0;
  double open_s = 0;
  double materialize_s = 0;
  double aggregate_s = 0;
  double append_merge_s = 0;
  double memory_merge_s = 0;
};

/// Folds `inputs` in memory: materialize each one, ResultStore::merge
/// them, save the result — the path --merge-stores takes without
/// --store-out.
void merge_in_memory(const std::vector<std::string>& inputs,
                     const std::string& out,
                     const campaign::CampaignSpec& spec) {
  campaign::ResultStore merged(spec);
  for (const std::string& p : inputs) {
    merged.merge(campaign::ColumnarStore::open(p, spec).materialize());
  }
  merged.save_columnar(out);
}

/// Times one size. Files land in --dir (default /tmp).
StoreTimings time_store(const campaign::CampaignSpec& spec,
                        const campaign::ResultStore& full,
                        const std::vector<campaign::ResultStore>& shards,
                        const std::string& dir) {
  namespace c = campaign;
  StoreTimings t;
  const std::string path = dir + "/store_bench.col";

  Clock::time_point start = Clock::now();
  full.save_columnar(path);
  t.save_s = seconds_since(start);
  t.bytes = file_bytes(path);

  start = Clock::now();
  const c::ColumnarStore store = c::ColumnarStore::open(path, spec);
  t.open_s = seconds_since(start);

  {
    start = Clock::now();
    const c::ResultStore heap = store.materialize();
    t.materialize_s = seconds_since(start);
    if (heap.items_done() != store.items_done()) {
      std::fprintf(stderr, "store_bench: materialize lost items?\n");
    }
  }

  start = Clock::now();
  const auto rows = store.aggregate();
  t.aggregate_s = seconds_since(start);
  if (rows.empty()) std::fprintf(stderr, "store_bench: empty aggregate?\n");

  // Merge: shards saved up front (not timed), then folded by append and
  // in memory.
  std::vector<std::string> shard_paths;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    shard_paths.push_back(dir + "/store_bench_shard" + std::to_string(s) +
                          ".col");
    shards[s].save_columnar(shard_paths.back());
  }
  const std::string appended = dir + "/store_bench_appended.col";
  start = Clock::now();
  c::ColumnarStore::append_merge(shard_paths, appended, spec);
  t.append_merge_s = seconds_since(start);

  const std::string merged = dir + "/store_bench_merged.col";
  start = Clock::now();
  merge_in_memory(shard_paths, merged, spec);
  t.memory_merge_s = seconds_since(start);

  std::remove(path.c_str());
  std::remove(appended.c_str());
  std::remove(merged.c_str());
  for (const std::string& p : shard_paths) std::remove(p.c_str());
  return t;
}

int run_bench(const util::Cli& cli) {
  const std::string dir = cli.get("dir", "/tmp");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2016));
  const std::size_t shard_count = 4;

  std::vector<std::pair<std::size_t, std::size_t>> sizes;  // (items, per_item)
  if (const auto items = cli.get_int("items", 0); items > 0) {
    sizes.emplace_back(static_cast<std::size_t>(items),
                       static_cast<std::size_t>(cli.get_int("per-item", 2)));
  } else {
    sizes.emplace_back(10000, 4);
    sizes.emplace_back(1000000, 2);
  }

  std::ostringstream json;
  json << "{\n  \"benchmark\": \"store\",\n  \"sizes\": [\n";
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    const auto [items, per_item] = sizes[si];
    const campaign::CampaignSpec spec =
        synthetic_spec(items, per_item, seed);
    campaign::ResultStore full(spec);
    fill_store(full, items, 1, 0);
    std::vector<campaign::ResultStore> shards;
    for (std::size_t s = 0; s < shard_count; ++s) {
      shards.emplace_back(spec);
      fill_store(shards.back(), items, shard_count, s);
    }

    const StoreTimings t = time_store(spec, full, shards, dir);

    json << "  {\n    \"items\": " << items
         << ",\n    \"per_item\": " << per_item
         << ",\n    \"file_bytes\": " << t.bytes
         << ",\n    \"save_s\": " << util::fmt_exact(t.save_s)
         << ",\n    \"open_s\": " << util::fmt_exact(t.open_s)
         << ",\n    \"materialize_s\": " << util::fmt_exact(t.materialize_s)
         << ",\n    \"aggregate_s\": " << util::fmt_exact(t.aggregate_s)
         << ",\n    \"append_merge_s\": "
         << util::fmt_exact(t.append_merge_s)
         << ",\n    \"memory_merge_s\": "
         << util::fmt_exact(t.memory_merge_s) << "\n  }"
         << (si + 1 == sizes.size() ? "\n" : ",\n");

    std::fprintf(stderr,
                 "store %8zu items x %zu (%.1f MB): save %.3fs open %.4fs "
                 "materialize %.3fs agg %.3fs | merge append %.3fs "
                 "memory %.3fs\n",
                 items, per_item, static_cast<double>(t.bytes) / 1e6,
                 t.save_s, t.open_s, t.materialize_s, t.aggregate_s,
                 t.append_merge_s, t.memory_merge_s);
  }
  json << "  ],\n  \"peak_rss_bytes\": " << peak_rss_bytes() << "\n}\n";

  const std::string json_path = cli.get("json", "");
  if (json_path.empty()) {
    std::cout << json.str();
  } else {
    std::ofstream os(json_path);
    os << json.str();
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Tool modes (CI smoke building blocks).

int run_make_shards(const util::Cli& cli, const campaign::CampaignSpec& spec,
                    std::size_t items) {
  const std::string dir = cli.get("make-shards", "");
  const auto shards =
      static_cast<std::size_t>(std::max<std::int64_t>(1, cli.get_int("shards", 4)));
  for (std::size_t s = 0; s < shards; ++s) {
    campaign::ResultStore store(spec);
    fill_store(store, items, shards, s);
    const std::string path = dir + "/shard" + std::to_string(s) + ".col";
    store.save_columnar(path);
    std::fprintf(stderr, "wrote %s (%zu items, %llu bytes)\n", path.c_str(),
                 store.items_done(),
                 static_cast<unsigned long long>(file_bytes(path)));
  }
  return 0;
}

int run_append_merge(const util::Cli& cli,
                     const campaign::CampaignSpec& spec) {
  const std::string out = cli.get("append-merge", "");
  const auto inputs = util::split_list(cli.get("inputs", ""));
  if (inputs.empty()) {
    std::fprintf(stderr, "--append-merge requires --inputs a,b,...\n");
    return 1;
  }
  const Clock::time_point start = Clock::now();
  campaign::ColumnarStore::append_merge(inputs, out, spec);
  std::fprintf(stderr,
               "appended %zu shards into %s (%llu bytes) in %.3fs, "
               "peak rss %.1f MB\n",
               inputs.size(), out.c_str(),
               static_cast<unsigned long long>(file_bytes(out)),
               seconds_since(start),
               static_cast<double>(peak_rss_bytes()) / 1e6);
  return 0;
}

int run_merge(const util::Cli& cli, const campaign::CampaignSpec& spec) {
  const std::string out = cli.get("merge", "");
  const auto inputs = util::split_list(cli.get("inputs", ""));
  if (inputs.empty()) {
    std::fprintf(stderr, "--merge requires --inputs a,b,...\n");
    return 1;
  }
  merge_in_memory(inputs, out, spec);
  std::fprintf(stderr, "merged %zu shards into %s in memory\n",
               inputs.size(), out.c_str());
  return 0;
}

int run_aggregate(const util::Cli& cli, const campaign::CampaignSpec& spec) {
  const std::string path = cli.get("aggregate", "");
  const std::string mode = cli.get("mode", "streaming");
  const std::string csv = cli.get("csv", "");

  std::vector<campaign::AggregateRow> rows;
  const Clock::time_point start = Clock::now();
  if (mode == "streaming") {
    // Bounded-memory leg: everything (index included) streams through the
    // store's LRU chunk cache a block at a time, so peak memory is
    // independent of the store size.
    rows = campaign::ColumnarStore::open(path, spec).aggregate();
  } else if (mode == "materialize") {
    // In-memory leg: copy the whole store onto the heap first — the path
    // whose footprint scales with the store and busts RSS caps.
    const auto store = campaign::ColumnarStore::open(path, spec).materialize();
    rows = store.aggregate();
  } else {
    std::fprintf(stderr, "--mode streaming|materialize (got %s)\n",
                 mode.c_str());
    return 1;
  }
  const double elapsed = seconds_since(start);

  if (!csv.empty()) {
    std::ofstream os(csv);
    campaign::write_rows_csv(os, rows);
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", csv.c_str());
      return 1;
    }
  }
  std::fprintf(stderr,
               "aggregated %s (%s) in %.3fs: %zu rows, peak rss %.1f MB\n",
               path.c_str(), mode.c_str(), elapsed, rows.size(),
               static_cast<double>(peak_rss_bytes()) / 1e6);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv);
    const auto items = static_cast<std::size_t>(
        std::max<std::int64_t>(1, cli.get_int("items", 1000000)));
    const auto per_item =
        static_cast<std::size_t>(std::max<std::int64_t>(1, cli.get_int("per-item", 2)));
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 2016));
    const campaign::CampaignSpec spec =
        synthetic_spec(items, per_item, seed);

    if (!cli.get("make-shards", "").empty()) {
      return run_make_shards(cli, spec, items);
    }
    if (!cli.get("append-merge", "").empty()) {
      return run_append_merge(cli, spec);
    }
    if (!cli.get("merge", "").empty()) return run_merge(cli, spec);
    if (!cli.get("aggregate", "").empty()) return run_aggregate(cli, spec);
    return run_bench(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "store_bench: %s\n", e.what());
    return 1;
  }
}
