#pragma once
// Columnar persistence for campaign raw stores — the one on-disk format
// (ResultStore::save_columnar writes it, ColumnarStore reads it), built
// out-of-core for 10^6..10^9-item grids where "parse every double again"
// and "hold every Sample on the heap" are the bottleneck.
//
// One file, three regions, all integers and doubles little-endian:
//
//   header     magic "ULPDCOL1", version, endianness tag, counts
//              (indexed items / physical slots / samples per item), the
//              spec fingerprint and the max-SNR ceilings, and a column
//              directory of (absolute offset, byte length) pairs — every
//              region is bounds-checked against the real file size before
//              any access, so a truncated or corrupt file throws a typed
//              StoreError naming the path instead of reading off the end
//              of a mapping.
//   index      two u64 columns: `item_index` (strictly ascending item
//              indices — the canonical iteration order) and `slot_of`
//              (the physical slot each item's samples live in). A fresh
//              save writes the identity permutation; append-merge keeps
//              shard sample bytes where they landed and only re-sorts
//              this (small) index.
//   columns    a u8 done-flag column plus one fixed-width f64 column per
//              Sample field, each slot-major, app-major/EMT-minor — the
//              same canonical layout the in-memory store uses.
//
// Loading is zero-copy: ColumnarStore::open() memory-maps the file (portable
// read-into-buffer fallback via util::FileView), validates the header and
// index, and serves aggregation straight from the mapping — no parse, no
// heap copy of samples. aggregate() streams the columns through the
// shared AggregateFolder in canonical item order, so its rows are
// bit-identical to ResultStore::aggregate() on the same campaign; its
// memory is one accumulator per output row. For hard RSS caps there is a
// bounded mode that replaces the mapping with an LRU chunk cache
// (util::ChunkedFileReader) — memory stays constant no matter how large
// the store grows. Shards fold by append: sample bytes are concatenated
// verbatim and only the index is re-sorted, so merging N shards costs
// O(total bytes) sequential I/O and O(index) memory.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
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
/// mmap-backed (or bounded-memory) view with the same query surface as a
/// complete in-memory ResultStore, minus any per-sample heap state.
class ColumnarStore {
 public:
  struct OpenOptions {
    /// Prefer mmap (zero-copy). Off — or with ULPDREAM_DISABLE_MMAP set —
    /// the portable read-into-buffer fallback is used instead.
    bool allow_mmap = true;
    /// Bounded-memory mode: never map or buffer the whole file; stream
    /// everything (index included) through an LRU chunk cache of
    /// cache_chunk_bytes x cache_chunks. For aggregation under an RSS cap
    /// smaller than the store.
    bool bounded_memory = false;
    std::size_t cache_chunk_bytes = 1u << 18;
    std::size_t cache_chunks = 64;
  };

  /// Opens and validates `path` against `spec` (normalized; fingerprints
  /// must match). Throws StoreError on any structural problem: bad magic,
  /// unsupported version, foreign endianness, truncation, directory /
  /// count disagreement, an unsorted or out-of-range index.
  [[nodiscard]] static ColumnarStore open(const std::string& path,
                                          const CampaignSpec& spec,
                                          const OpenOptions& options);
  [[nodiscard]] static ColumnarStore open(const std::string& path,
                                          const CampaignSpec& spec) {
    return open(path, spec, OpenOptions{});
  }

  [[nodiscard]] const CampaignSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// True when the file is served by a real memory mapping (the zero-copy
  /// path); false for the buffered fallback and for bounded mode.
  [[nodiscard]] bool mapped() const noexcept;
  [[nodiscard]] bool bounded() const noexcept { return reader_.has_value(); }

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
  [[nodiscard]] bool item_done(std::size_t item_index) const;
  [[nodiscard]] double max_snr_db(std::size_t record_index,
                                  std::size_t app_index) const;

  /// Streaming grouped aggregation: folds column slices in canonical item
  /// order through the same folder as ResultStore::aggregate — the rows
  /// are bit-identical to the in-memory path — without materializing a
  /// single Sample on the heap. Throws std::logic_error when incomplete.
  [[nodiscard]] std::vector<AggregateRow> aggregate(
      const GroupBy& group = GroupBy{}) const;

  /// Reads one item's samples (app-major, EMT-minor) out of the columns —
  /// the random-access escape hatch (and the resume/materialize path).
  /// `sorted_pos` indexes the sorted item index, not physical slots.
  [[nodiscard]] std::size_t item_at(std::size_t sorted_pos) const;
  void samples_at(std::size_t sorted_pos, std::vector<Sample>& out) const;

  /// Copies the whole store into a heap ResultStore — the bridge back to
  /// every in-memory consumer (resume_from, to_sweep_result, in-memory
  /// merge). Deliberately the only operation that materializes samples.
  [[nodiscard]] ResultStore materialize() const;

  struct AppendOptions {
    /// Verbatim (default): sample bytes are concatenated where they
    /// landed and only the index is re-sorted — O(total bytes)
    /// sequential I/O, duplicate slots stay in the file unreferenced.
    /// Canonical: physical slots are rewritten in sorted item order and
    /// unreferenced duplicates dropped, so the output is byte-identical
    /// to a single-process ResultStore::save_columnar of the same data —
    /// the daemon's proof obligation for leased grids (CI byte-compares
    /// its merged store against the single-process run). Both stream
    /// through fixed-size buffers; memory stays O(index) either way.
    bool canonical = false;
  };

  /// Folds shard files by append: validates every input against `spec`,
  /// copies their done/sample columns (verbatim or canonically reordered
  /// per `options` — sample bytes are never decoded), merges the sorted
  /// index runs (first done occurrence of a duplicated item wins,
  /// matching ResultStore::merge), and atomically publishes `out_path`.
  /// Memory scales with the merged index, never with the sample data.
  static void append_merge(const std::vector<std::string>& inputs,
                           const std::string& out_path,
                           const CampaignSpec& spec,
                           const AppendOptions& options);
  static void append_merge(const std::vector<std::string>& inputs,
                           const std::string& out_path,
                           const CampaignSpec& spec) {
    append_merge(inputs, out_path, spec, AppendOptions{});
  }

 private:
  ColumnarStore() = default;

  /// Bounds-checked scalar read through whichever backing is active.
  [[nodiscard]] std::uint64_t u64_at(std::uint64_t offset) const;
  [[nodiscard]] double f64_at(std::uint64_t offset) const;
  [[nodiscard]] std::uint8_t u8_at(std::uint64_t offset) const;

  CampaignSpec spec_;
  std::string path_;
  std::optional<util::FileView> view_;          ///< mapped / buffered
  std::optional<util::ChunkedFileReader> reader_;  ///< bounded mode
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
