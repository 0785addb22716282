#pragma once
// Accumulation side of the campaign engine. A ResultStore holds the raw
// per-(item, app, EMT) samples of one campaign, keyed by the spec's
// canonical item order, so that:
//  - shards merge losslessly (a shard's store records exactly the items
//    that shard executed; merging the shards of any split reconstructs
//    the full store bit-for-bit);
//  - aggregation folds samples in canonical item order regardless of the
//    order threads produced them, making every derived statistic
//    bit-identical for any thread count or shard split.
// Aggregates export as machine-readable CSV/JSON (loss-free round trip
// via shortest-round-trip doubles). The figure benches and the Sec. VI-C
// policy explorer read the full-GroupBy rows of one (record, app) slice
// (app_slice, find_row).
//
// Storage is sparse and index-keyed: a store holds (item app-x-EMT
// sample slices) only for the items it has slots for — a sorted item-index
// array with parallel done flags and sample slices. A shard store is
// constructed over exactly its shard's item list (the engine path), so
// per-process memory scales with the shard's item count, not the whole
// campaign grid; slot lookup is a binary search over a read-only index,
// which keeps the concurrent record_item path synchronisation-free.
// Merge targets start empty and grow as shards fold in.

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ulpdream/campaign/spec.hpp"
#include "ulpdream/energy/energy_model.hpp"
#include "ulpdream/util/table.hpp"

namespace ulpdream::campaign {

/// One application run's raw outcome (the campaign-grid analogue of
/// sim::RunResult, flattened for dense storage).
struct Sample {
  double snr_db = 0.0;
  energy::EnergyBreakdown energy{};
  double corrected_words = 0.0;
  double detected_uncorrectable = 0.0;
};

/// Which axes to group by; ungrouped axes are marginalized (their label
/// exports as "*"). Default: the full (record, app, emt, voltage) grid.
struct GroupBy {
  bool record = true;
  bool app = true;
  bool emt = true;
  bool voltage = true;
};

/// One aggregated output row. `voltage` is NaN when marginalized.
struct AggregateRow {
  std::string record = "*";
  std::string app = "*";
  std::string emt = "*";
  double voltage = 0.0;
  std::size_t n = 0;
  double snr_mean_db = 0.0;
  double snr_stddev_db = 0.0;
  double snr_min_db = 0.0;
  double snr_max_db = 0.0;
  double snr_p10_db = 0.0;
  double energy_mean_j = 0.0;
  double data_dynamic_j = 0.0;  ///< mean per-run breakdown components
  double side_dynamic_j = 0.0;
  double codec_j = 0.0;
  double data_leak_j = 0.0;
  double side_leak_j = 0.0;
  double corrected_mean = 0.0;
  double detected_mean = 0.0;
};

class ResultStore {
 public:
  ResultStore() = default;
  /// Empty store over the campaign: no slots preallocated. Used as the
  /// merge target and by single-threaded producers (record_item grows it
  /// on demand). `spec` must already be normalized (the engine guarantees
  /// this).
  explicit ResultStore(CampaignSpec spec);
  /// Shard store: slots preallocated for exactly `items` (the slice this
  /// process executes), so memory scales with the shard and concurrent
  /// record_item calls never mutate the index.
  ResultStore(CampaignSpec spec, std::span<const WorkItem> items);

  [[nodiscard]] const CampaignSpec& spec() const noexcept { return spec_; }

  /// Records the samples of one executed item, in (app-major, EMT-minor)
  /// order. Thread-safe for *distinct* items whose slots are preallocated
  /// (the shard constructor): each one owns a disjoint slice behind a
  /// read-only index. Recording an item without a slot inserts one and is
  /// NOT thread-safe.
  void record_item(const WorkItem& item, const std::vector<Sample>& samples);

  /// Clean-run ceiling per (record, app) — the Fig. 4 dashed line.
  void set_max_snr(std::size_t record_index, std::size_t app_index,
                   double snr_db);
  [[nodiscard]] double max_snr_db(std::size_t record_index,
                                  std::size_t app_index) const;

  [[nodiscard]] std::size_t items_done() const noexcept;
  [[nodiscard]] bool complete() const noexcept;
  /// Whether the item at canonical index `item_index` has been recorded —
  /// how a resumed submission decides which items still need to run.
  [[nodiscard]] bool item_done(std::size_t item_index) const noexcept;
  /// Items this store holds slots for (executed or preallocated) — the
  /// quantity per-process memory scales with.
  [[nodiscard]] std::size_t stored_items() const noexcept {
    return item_index_.size();
  }

  /// Folds another shard of the *same* campaign into this store. Throws
  /// std::invalid_argument on a spec fingerprint mismatch (axes + seed),
  /// quoting both fingerprints — stores of different grids never mix
  /// silently.
  void merge(const ResultStore& other);

  /// Grouped aggregation in canonical axis order. Throws std::logic_error
  /// when the store is incomplete (a shard store must be merged with its
  /// siblings first).
  [[nodiscard]] std::vector<AggregateRow> aggregate(
      const GroupBy& group = GroupBy{}) const;

  /// Raw-store persistence, the cross-process sharding and checkpoint
  /// path (format in columnar.hpp): done items' samples as fixed-width
  /// little-endian columns behind a header + sorted index. The file is
  /// staged under a name unique to this process (PATH.tmp.<pid>), fsync'd,
  /// renamed over PATH, and the parent directory fsync'd, so a file at
  /// PATH is always a complete checkpoint. It reopens out-of-core via
  /// ColumnarStore::open. Byte-deterministic: equal stores save to equal
  /// files. Throws on I/O failure; the staging file is removed on every
  /// failure path.
  void save_columnar(const std::string& path) const;

  /// Read-only slot views — the persistence seam the columnar writer and
  /// other exporters serialize from. `slot` indexes the sorted item index
  /// (slot_items()[slot] is the canonical item it holds).
  [[nodiscard]] std::span<const std::size_t> slot_items() const noexcept {
    return item_index_;
  }
  [[nodiscard]] bool slot_done(std::size_t slot) const {
    return item_done_.at(slot) != 0;
  }
  [[nodiscard]] std::span<const Sample> slot_samples(std::size_t slot) const {
    return std::span<const Sample>(samples_)
        .subspan(slot * per_item(), per_item());
  }

 private:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  [[nodiscard]] std::size_t per_item() const noexcept {
    return spec_.apps.size() * spec_.emts.size();
  }
  /// Binary search over the sorted item index; kNoSlot when absent.
  [[nodiscard]] std::size_t find_slot(std::size_t item) const noexcept;
  /// Inserts a slot for `item` (single-threaded growth path).
  std::size_t insert_slot(std::size_t item);

  CampaignSpec spec_;
  std::vector<std::size_t> item_index_;  ///< sorted item indices with slots
  std::vector<char> item_done_;          ///< parallel to item_index_
  std::vector<Sample> samples_;  ///< slot-major, then app-major, EMT-minor
  std::vector<double> max_snr_;  ///< record-major x apps, NaN until set
};

/// The (record, app) slice of the full-GroupBy aggregate() rows of a grid
/// with this (normalized) spec: one row per (EMT, voltage), EMT-major with
/// voltage varying fastest, as aggregate() lists them. Throws
/// std::invalid_argument when `rows` is not the full grid or an index is
/// out of range.
[[nodiscard]] std::span<const AggregateRow> app_slice(
    const CampaignSpec& spec, std::span<const AggregateRow> rows,
    std::size_t record_index, std::size_t app_index);

/// The row of (emt, voltage) in `rows`, voltages matched within 1e-6 V;
/// nullptr when the cell is missing.
[[nodiscard]] const AggregateRow* find_row(std::span<const AggregateRow> rows,
                                           std::string_view emt,
                                           double voltage);

/// Aggregate-row serialization. Column order is fixed and documented by
/// aggregate_csv_header(); doubles use shortest-round-trip formatting so
/// write -> read reproduces the exact values. read_rows_csv reads outside
/// input (a daemon's answer) and throws std::invalid_argument naming the
/// row and column of any malformed cell; `n` must be a plain unsigned
/// integer. The JSON export (NaN as null, infinities as "inf"/"-inf") is
/// write-only.
[[nodiscard]] const std::vector<std::string>& aggregate_csv_header();
void write_rows_csv(std::ostream& os, const std::vector<AggregateRow>& rows);
[[nodiscard]] std::vector<AggregateRow> read_rows_csv(std::istream& is);
void write_rows_json(std::ostream& os, const std::vector<AggregateRow>& rows);

/// Pretty-printed view of aggregate rows (human-facing counterpart of the
/// CSV export).
[[nodiscard]] util::Table rows_to_table(const std::vector<AggregateRow>& rows,
                                        const std::string& title);

}  // namespace ulpdream::campaign
