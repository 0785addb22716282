#pragma once
// Columnar persistence for campaign raw stores — the one on-disk format
// (ResultStore::save_columnar and ColumnarStore::append_merge write it,
// ColumnarStore reads it), built out-of-core for 10^6..10^9-item grids
// where "parse every double again" and "hold every Sample on the heap"
// are the bottleneck.
//
// One file, three regions, all integers and doubles little-endian:
//
//   header     magic "ULPDCOL1", version, endianness tag, counts
//              (indexed items / physical slots / samples per item), the
//              spec fingerprint and the max-SNR ceilings, and a column
//              directory of (absolute offset, byte length) pairs — every
//              region is bounds-checked against the real file size before
//              any access, so a truncated or corrupt file throws a typed
//              StoreError naming the path instead of reading off the end.
//   index      two u64 columns: `item_index` (strictly ascending item
//              indices — the canonical iteration order) and `slot_of`
//              (the physical slot each item's samples live in). Every
//              writer emits done items only, in item order, with the
//              identity `slot_of`; the reader still accepts a permuted
//              `slot_of` and unreferenced slots, the layout that older
//              verbatim appends wrote.
//   columns    a u8 done-flag column plus one fixed-width f64 column per
//              Sample field, each slot-major, app-major/EMT-minor — the
//              same canonical layout the in-memory store uses.
//
// Every read goes through one bounded chunk cache (util::ChunkedFileReader:
// pread, nothing mapped). open() validates the header and scans the index;
// aggregate() and materialize() walk the sorted index in fixed blocks,
// reading each index and field-column slice once per block. Memory stays
// bounded however large the store grows, and aggregate() folds in
// canonical item order through the shared AggregateFolder, so its rows are
// bit-identical to ResultStore::aggregate() on the same campaign. Shards
// fold by append_merge, which writes the bytes a single-process
// save_columnar of the merged data would.
//
// A ColumnarStore serves one thread at a time: its chunk cache mutates
// inside const calls. Open one per request or per thread.

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ulpdream/campaign/result_store.hpp"
#include "ulpdream/campaign/spec.hpp"
#include "ulpdream/util/file_view.hpp"

namespace ulpdream::campaign {

/// Typed persistence failure: malformed/truncated/mismatched store files
/// and short reads all throw this, always naming the offending path.
class StoreError : public std::runtime_error {
 public:
  StoreError(std::string path, const std::string& what)
      : std::runtime_error(path + ": " + what), path_(std::move(path)) {}
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

/// The 8-byte magic that opens every columnar store file.
inline constexpr char kColumnarMagic[8] = {'U', 'L', 'P', 'D',
                                           'C', 'O', 'L', '1'};

/// A campaign raw store opened from its columnar file: a read-only,
/// bounded-memory view with the same query surface as a complete
/// in-memory ResultStore, minus any per-sample heap state. One thread at
/// a time (see the file comment).
class ColumnarStore {
 public:
  /// Opens and validates `path` against `spec` (normalized; fingerprints
  /// must match). Throws StoreError on any structural problem: bad magic,
  /// unsupported version, foreign endianness, truncation, directory /
  /// count disagreement, an unsorted or out-of-range index.
  [[nodiscard]] static ColumnarStore open(const std::string& path,
                                          const CampaignSpec& spec);

  [[nodiscard]] const CampaignSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const std::string& path() const noexcept {
    return reader_.path();
  }

  /// Items with an index entry (= stored items; saves write done items
  /// only, so normally all of them are done).
  [[nodiscard]] std::size_t stored_items() const noexcept {
    return n_index_;
  }
  [[nodiscard]] std::size_t items_done() const noexcept {
    return items_done_;
  }
  [[nodiscard]] bool complete() const noexcept {
    return items_done_ == spec_.item_count();
  }

  /// Streaming grouped aggregation: folds column slices in canonical item
  /// order through the same folder as ResultStore::aggregate — the rows
  /// are bit-identical to the in-memory path — without materializing a
  /// single Sample on the heap. Throws std::logic_error when incomplete.
  [[nodiscard]] std::vector<AggregateRow> aggregate(
      const GroupBy& group = GroupBy{}) const;

  /// Reads one item's samples (app-major, EMT-minor) out of the columns —
  /// the random-access escape hatch.
  /// `sorted_pos` indexes the sorted item index, not physical slots.
  [[nodiscard]] std::size_t item_at(std::size_t sorted_pos) const;
  void samples_at(std::size_t sorted_pos, std::vector<Sample>& out) const;

  /// Copies the whole store into a heap ResultStore — the bridge back to
  /// every in-memory consumer (resume_from, in-memory merge).
  /// Deliberately the only operation that materializes samples.
  [[nodiscard]] ResultStore materialize() const;

  /// Folds shard files by append: validates every input against `spec`,
  /// merges their sorted indices (first done occurrence of a duplicated
  /// item wins, matching ResultStore::merge), gathers the winners' sample
  /// rows in item order without decoding a sample, and atomically
  /// publishes `out_path` — the bytes a single-process save_columnar of
  /// the merged data writes. Memory scales with the merged index, never
  /// with the sample data.
  static void append_merge(const std::vector<std::string>& inputs,
                           const std::string& out_path,
                           const CampaignSpec& spec);

 private:
  struct Block;

  explicit ColumnarStore(util::ChunkedFileReader reader)
      : reader_(std::move(reader)) {}

  /// The one scan: advances `b` to the next block of the sorted index
  /// and fills the entries' items, slots and done flags, plus their rows
  /// of every field column in the `fields` bitmask (bit f = field f).
  /// Validates what it reads (items strictly ascending inside the grid,
  /// slots inside the data columns). False once the index is exhausted.
  bool next_block(Block& b, unsigned fields) const;

  [[nodiscard]] std::uint64_t u64_at(std::uint64_t offset) const {
    return reader_.pod_at<std::uint64_t>(offset);
  }

  CampaignSpec spec_;
  util::ChunkedFileReader reader_;
  std::uint64_t n_index_ = 0;
  std::uint64_t n_physical_ = 0;
  std::uint64_t per_item_ = 0;
  std::size_t items_done_ = 0;
  std::vector<double> max_snr_;  ///< record-major x apps (small, heap)
  /// Column directory, fixed order: item_index, slot_of, done, then the
  /// eight Sample field columns.
  struct Column {
    std::uint64_t offset = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<Column> columns_;
};

}  // namespace ulpdream::campaign
