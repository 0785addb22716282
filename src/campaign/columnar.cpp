#include "ulpdream/campaign/columnar.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "aggregate_fold.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace ulpdream::campaign {

namespace {

constexpr std::uint32_t kVersion = 1;
/// Written with native byte order; a reader on a host with the other
/// endianness sees the bytes reversed and rejects the file instead of
/// silently misreading every column. (In practice both sides are
/// little-endian; the tag guards the exotic cross-host move.)
constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::uint64_t kFixedHeaderBytes = 64;
/// item_index, slot_of, done, then the eight Sample field columns.
constexpr std::uint64_t kNumColumns = 11;

constexpr std::uint64_t align8(std::uint64_t n) { return (n + 7) & ~7ull; }

/// Field extractors in column order 3..10 — the one place that fixes the
/// Sample-field <-> column mapping for both writer and reader.
using FieldGet = double (*)(const Sample&);
constexpr FieldGet kFieldGet[8] = {
    [](const Sample& s) { return s.snr_db; },
    [](const Sample& s) { return s.energy.data_dynamic_j; },
    [](const Sample& s) { return s.energy.side_dynamic_j; },
    [](const Sample& s) { return s.energy.codec_j; },
    [](const Sample& s) { return s.energy.data_leak_j; },
    [](const Sample& s) { return s.energy.side_leak_j; },
    [](const Sample& s) { return s.corrected_words; },
    [](const Sample& s) { return s.detected_uncorrectable; }};

using FieldSet = void (*)(Sample&, double);
constexpr FieldSet kFieldSet[8] = {
    [](Sample& s, double v) { s.snr_db = v; },
    [](Sample& s, double v) { s.energy.data_dynamic_j = v; },
    [](Sample& s, double v) { s.energy.side_dynamic_j = v; },
    [](Sample& s, double v) { s.energy.codec_j = v; },
    [](Sample& s, double v) { s.energy.data_leak_j = v; },
    [](Sample& s, double v) { s.energy.side_leak_j = v; },
    [](Sample& s, double v) { s.corrected_words = v; },
    [](Sample& s, double v) { s.detected_uncorrectable = v; }};

/// Sequential file writer with an internal chunk buffer and a running
/// byte count, so the layout the header promises can be asserted while
/// writing. All failures surface in finish() (or the final stream check).
class BufferedFileWriter {
 public:
  explicit BufferedFileWriter(const std::string& path)
      : path_(path), os_(path, std::ios::binary | std::ios::trunc) {
    buffer_.reserve(kFlushBytes);
  }

  void put_bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const char*>(data);
    buffer_.insert(buffer_.end(), p, p + len);
    written_ += len;
    if (buffer_.size() >= kFlushBytes) flush_buffer();
  }
  void put_u32(std::uint32_t v) { put_bytes(&v, sizeof(v)); }
  void put_u64(std::uint64_t v) { put_bytes(&v, sizeof(v)); }
  void put_f64(double v) { put_bytes(&v, sizeof(v)); }
  void pad_to(std::uint64_t offset) {
    static constexpr char kZeros[8] = {};
    while (written_ < offset) {
      put_bytes(kZeros, std::min<std::uint64_t>(8, offset - written_));
    }
  }

  [[nodiscard]] std::uint64_t written() const noexcept { return written_; }

  /// Flushes and closes; throws StoreError on any accumulated I/O error.
  void finish() {
    flush_buffer();
    os_.flush();
    if (!os_) throw StoreError(path_, "failed to write columnar store");
    os_.close();
  }

 private:
  static constexpr std::size_t kFlushBytes = 1u << 20;
  void flush_buffer() {
    if (!buffer_.empty()) {
      os_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
      buffer_.clear();
    }
  }
  std::string path_;
  std::ofstream os_;
  std::vector<char> buffer_;
  std::uint64_t written_ = 0;
};

struct Layout {
  std::uint64_t file_bytes = 0;
  std::uint64_t fingerprint_pad = 0;
  std::uint64_t dir_offset = 0;  ///< of the n_columns word
  std::uint64_t column_offset[kNumColumns] = {};
  std::uint64_t column_bytes[kNumColumns] = {};
};

/// Computes the full file layout from the logical counts. Shared by the
/// writer and append_merge so a layout bug cannot split between them.
Layout compute_layout(std::uint64_t n_index, std::uint64_t n_physical,
                      std::uint64_t per_item, std::uint64_t fingerprint_len,
                      std::uint64_t max_snr_count) {
  Layout l;
  l.fingerprint_pad = align8(fingerprint_len);
  l.dir_offset = kFixedHeaderBytes + l.fingerprint_pad + 8 * max_snr_count;
  std::uint64_t off = l.dir_offset + 8 + 16 * kNumColumns;
  const auto place = [&](std::size_t col, std::uint64_t bytes) {
    l.column_offset[col] = off;
    l.column_bytes[col] = bytes;
    off += align8(bytes);
  };
  place(0, 8 * n_index);                   // item_index
  place(1, 8 * n_index);                   // slot_of
  place(2, n_physical);                    // done flags
  for (std::size_t f = 0; f < 8; ++f) {    // sample field columns
    place(3 + f, 8 * n_physical * per_item);
  }
  l.file_bytes = off;
  return l;
}

void write_header(BufferedFileWriter& w, const Layout& l,
                  const std::string& fingerprint,
                  std::span<const double> max_snr, std::uint64_t n_index,
                  std::uint64_t n_physical, std::uint64_t per_item) {
  w.put_bytes(kColumnarMagic, sizeof(kColumnarMagic));
  w.put_u32(kVersion);
  w.put_u32(kEndianTag);
  w.put_u64(l.file_bytes);
  w.put_u64(n_index);
  w.put_u64(n_physical);
  w.put_u64(per_item);
  w.put_u64(fingerprint.size());
  w.put_u64(max_snr.size());
  w.put_bytes(fingerprint.data(), fingerprint.size());
  w.pad_to(kFixedHeaderBytes + l.fingerprint_pad);
  for (double v : max_snr) w.put_f64(v);
  w.put_u64(kNumColumns);
  for (std::size_t c = 0; c < kNumColumns; ++c) {
    w.put_u64(l.column_offset[c]);
    w.put_u64(l.column_bytes[c]);
  }
}

/// Staging-file name unique to this process: concurrent writers aiming
/// at the same target never tear each other's staging bytes.
std::string staging_name(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  return path + ".tmp." + std::to_string(::getpid());
#else
  return path + ".tmp";
#endif
}

}  // namespace

// ---------------------------------------------------------------------------
// Writer.

void ResultStore::save_columnar(const std::string& path) const {
  ULPDREAM_TRACE_SPAN("store.save_columnar");
  namespace tel = util::telemetry;
  static const tel::Counter saves("store.columnar.saves");
  static const tel::Counter save_bytes("store.columnar.save_bytes");
  static const tel::Histogram save_ns("store.columnar.save_ns");
  const std::uint64_t t0 = tel::now_ns();

  // Done items only — a checkpoint never persists preallocated but
  // unexecuted slots.
  std::vector<std::size_t> done_slots;
  done_slots.reserve(item_index_.size());
  for (std::size_t slot = 0; slot < item_index_.size(); ++slot) {
    if (item_done_[slot]) done_slots.push_back(slot);
  }
  const std::uint64_t n = done_slots.size();
  const std::uint64_t pi = per_item();
  const std::string fingerprint = spec_.fingerprint();
  const Layout l =
      compute_layout(n, n, pi, fingerprint.size(), max_snr_.size());

  const std::string tmp = staging_name(path);
  try {
    BufferedFileWriter w(tmp);
    write_header(w, l, fingerprint, max_snr_, n, n, pi);
    // Index: sorted item indices with the identity permutation — a fresh
    // save is its own canonical order.
    for (const std::size_t slot : done_slots) {
      w.put_u64(item_index_[slot]);
    }
    for (std::uint64_t i = 0; i < n; ++i) w.put_u64(i);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint8_t done = 1;
      w.put_bytes(&done, 1);
    }
    w.pad_to(l.column_offset[2] + align8(l.column_bytes[2]));
    // One pass per field column, slot-major / app-major / EMT-minor.
    for (std::size_t f = 0; f < 8; ++f) {
      for (const std::size_t slot : done_slots) {
        const Sample* s = samples_.data() + slot * pi;
        for (std::uint64_t k = 0; k < pi; ++k) {
          w.put_f64(kFieldGet[f](s[k]));
        }
      }
    }
    if (w.written() != l.file_bytes) {
      throw StoreError(tmp, "internal layout mismatch while writing");
    }
    w.finish();
    util::publish_file_atomic(tmp, path);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  save_ns.record(tel::now_ns() - t0);
  save_bytes.add(l.file_bytes);
  saves.add();
}

// ---------------------------------------------------------------------------
// Reader.

std::uint64_t ColumnarStore::u64_at(std::uint64_t offset) const {
  return reader_ ? reader_->pod_at<std::uint64_t>(offset)
                 : view_->pod_at<std::uint64_t>(offset);
}

double ColumnarStore::f64_at(std::uint64_t offset) const {
  return reader_ ? reader_->pod_at<double>(offset)
                 : view_->pod_at<double>(offset);
}

std::uint8_t ColumnarStore::u8_at(std::uint64_t offset) const {
  return reader_ ? reader_->pod_at<std::uint8_t>(offset)
                 : view_->pod_at<std::uint8_t>(offset);
}

bool ColumnarStore::mapped() const noexcept {
  return view_.has_value() && view_->mapped();
}

ColumnarStore ColumnarStore::open(const std::string& path,
                                  const CampaignSpec& spec,
                                  const OpenOptions& options) {
  ULPDREAM_TRACE_SPAN("store.open_columnar");
  namespace tel = util::telemetry;
  static const tel::Counter opens("store.columnar.opens");
  static const tel::Counter mapped_opens("store.columnar.mapped_opens");
  static const tel::Histogram open_ns("store.columnar.open_ns");
  const std::uint64_t t0 = tel::now_ns();

  ColumnarStore store;
  store.path_ = path;
  store.spec_ = spec.normalized();
  const auto fail = [&path](const std::string& what) -> void {
    throw StoreError(path, "columnar store: " + what);
  };

  std::uint64_t size = 0;
  try {
    if (options.bounded_memory) {
      store.reader_.emplace(path, options.cache_chunk_bytes,
                            options.cache_chunks);
      size = store.reader_->size();
    } else {
      store.view_ = util::FileView::open(path, options.allow_mmap);
      size = store.view_->size();
    }
  } catch (const std::runtime_error& e) {
    throw StoreError(path, e.what());
  }

  // Header. Every count is validated against the real file size before
  // anything derived from it is dereferenced — a truncated or lying file
  // fails typed, never with a read off the end of the mapping.
  if (size < kFixedHeaderBytes) fail("truncated header");
  char magic[8];
  if (store.reader_) {
    store.reader_->read(0, magic, sizeof(magic));
  } else {
    std::memcpy(magic, store.view_->bytes(0, 8).data(), 8);
  }
  if (std::memcmp(magic, kColumnarMagic, sizeof(magic)) != 0) {
    fail("bad magic (not a columnar store file)");
  }
  const auto u32_at = [&store](std::uint64_t offset) {
    return store.reader_ ? store.reader_->pod_at<std::uint32_t>(offset)
                         : store.view_->pod_at<std::uint32_t>(offset);
  };
  const std::uint32_t version = u32_at(8);
  if (version != kVersion) {
    fail("unsupported version " + std::to_string(version) + " (expected " +
         std::to_string(kVersion) + ")");
  }
  if (u32_at(12) != kEndianTag) {
    fail("endianness mismatch — file was written on a foreign-endian host");
  }
  const std::uint64_t file_bytes = store.u64_at(16);
  if (file_bytes != size) {
    fail("truncated or padded file (header records " +
         std::to_string(file_bytes) + " bytes, file has " +
         std::to_string(size) + ")");
  }
  store.n_index_ = store.u64_at(24);
  store.n_physical_ = store.u64_at(32);
  store.per_item_ = store.u64_at(40);
  const std::uint64_t fingerprint_len = store.u64_at(48);
  const std::uint64_t max_snr_count = store.u64_at(56);

  const std::uint64_t want_pi =
      store.spec_.apps.size() * store.spec_.emts.size();
  if (store.per_item_ != want_pi) {
    fail("per-item sample count " + std::to_string(store.per_item_) +
         " disagrees with the campaign spec (" + std::to_string(want_pi) +
         ")");
  }
  if (fingerprint_len > size - kFixedHeaderBytes) {
    fail("truncated fingerprint");
  }
  std::string fingerprint(fingerprint_len, '\0');
  if (fingerprint_len != 0) {
    if (store.reader_) {
      store.reader_->read(kFixedHeaderBytes, fingerprint.data(),
                          fingerprint_len);
    } else {
      std::memcpy(fingerprint.data(),
                  store.view_->bytes(kFixedHeaderBytes, fingerprint_len)
                      .data(),
                  fingerprint_len);
    }
  }
  if (fingerprint != store.spec_.fingerprint()) {
    fail(
        "spec fingerprint mismatch — the file was saved for a different "
        "campaign grid\n  expected: " +
        store.spec_.fingerprint() + "\n  file:     " + fingerprint);
  }
  if (max_snr_count !=
      store.spec_.records.size() * store.spec_.apps.size()) {
    fail("max_snr count disagrees with the campaign spec");
  }

  const Layout l = compute_layout(store.n_index_, store.n_physical_,
                                  store.per_item_, fingerprint_len,
                                  max_snr_count);
  if (l.file_bytes != size) {
    fail("index/column lengths disagree with the file size (layout needs " +
         std::to_string(l.file_bytes) + " bytes, file has " +
         std::to_string(size) + ")");
  }
  store.max_snr_.resize(max_snr_count);
  for (std::uint64_t i = 0; i < max_snr_count; ++i) {
    store.max_snr_[i] =
        store.f64_at(kFixedHeaderBytes + l.fingerprint_pad + 8 * i);
  }
  if (store.u64_at(l.dir_offset) != kNumColumns) {
    fail("unexpected column count " +
         std::to_string(store.u64_at(l.dir_offset)));
  }
  store.columns_.resize(kNumColumns);
  for (std::size_t c = 0; c < kNumColumns; ++c) {
    store.columns_[c].offset = store.u64_at(l.dir_offset + 8 + 16 * c);
    store.columns_[c].bytes = store.u64_at(l.dir_offset + 16 + 16 * c);
    if (store.columns_[c].offset != l.column_offset[c] ||
        store.columns_[c].bytes != l.column_bytes[c]) {
      fail("column " + std::to_string(c) +
           " directory entry disagrees with the index counts (offset " +
           std::to_string(store.columns_[c].offset) + ", " +
           std::to_string(store.columns_[c].bytes) + " bytes; expected " +
           std::to_string(l.column_offset[c]) + ", " +
           std::to_string(l.column_bytes[c]) + ")");
    }
  }

  // Index validation: strictly ascending canonical items inside the grid,
  // physical slots inside the data columns. One sequential pass — also
  // where items_done is counted, so open() touches the (small) index but
  // never a sample column.
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < store.n_index_; ++i) {
    const std::uint64_t item = store.u64_at(l.column_offset[0] + 8 * i);
    const std::uint64_t slot = store.u64_at(l.column_offset[1] + 8 * i);
    if (item >= store.spec_.item_count()) {
      fail("index entry " + std::to_string(i) + " names item " +
           std::to_string(item) + " outside the campaign grid");
    }
    if (i != 0 && item <= prev) {
      fail("item index is not strictly ascending at entry " +
           std::to_string(i));
    }
    if (slot >= store.n_physical_) {
      fail("index entry " + std::to_string(i) + " points at physical slot " +
           std::to_string(slot) + " of " +
           std::to_string(store.n_physical_));
    }
    prev = item;
    if (store.u8_at(l.column_offset[2] + slot) != 0) ++store.items_done_;
  }

  open_ns.record(tel::now_ns() - t0);
  opens.add();
  if (store.mapped()) mapped_opens.add();
  return store;
}

std::size_t ColumnarStore::item_at(std::size_t sorted_pos) const {
  if (sorted_pos >= n_index_) {
    throw StoreError(path_, "item_at: position out of range");
  }
  return static_cast<std::size_t>(
      u64_at(columns_[0].offset + 8 * sorted_pos));
}

void ColumnarStore::samples_at(std::size_t sorted_pos,
                               std::vector<Sample>& out) const {
  if (sorted_pos >= n_index_) {
    throw StoreError(path_, "samples_at: position out of range");
  }
  const std::uint64_t phys = u64_at(columns_[1].offset + 8 * sorted_pos);
  out.assign(per_item_, Sample{});
  for (std::size_t f = 0; f < 8; ++f) {
    const std::uint64_t base =
        columns_[3 + f].offset + 8 * phys * per_item_;
    for (std::uint64_t k = 0; k < per_item_; ++k) {
      kFieldSet[f](out[k], f64_at(base + 8 * k));
    }
  }
}

bool ColumnarStore::item_done(std::size_t item_index) const {
  // Binary search over the on-disk sorted item column.
  std::uint64_t lo = 0;
  std::uint64_t hi = n_index_;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    const std::uint64_t item = u64_at(columns_[0].offset + 8 * mid);
    if (item < item_index) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == n_index_ ||
      u64_at(columns_[0].offset + 8 * lo) != item_index) {
    return false;
  }
  const std::uint64_t slot = u64_at(columns_[1].offset + 8 * lo);
  return u8_at(columns_[2].offset + slot) != 0;
}

double ColumnarStore::max_snr_db(std::size_t record_index,
                                 std::size_t app_index) const {
  return max_snr_.at(record_index * spec_.apps.size() + app_index);
}

std::vector<AggregateRow> ColumnarStore::aggregate(
    const GroupBy& group) const {
  ULPDREAM_TRACE_SPAN("store.aggregate_columnar");
  namespace tel = util::telemetry;
  static const tel::Counter aggregates("store.columnar.aggregates");
  static const tel::Counter agg_samples("store.columnar.aggregate_samples");
  static const tel::Histogram agg_ns("store.columnar.aggregate_ns");
  const std::uint64_t t0 = tel::now_ns();
  if (!complete()) {
    throw std::logic_error(
        "ColumnarStore::aggregate: store incomplete — merge all shards "
        "first");
  }
  const std::size_t na = spec_.apps.size();
  const std::size_t ne = spec_.emts.size();

  // The streaming fold: walk the sorted index (canonical item order),
  // assemble each (app, EMT) sample from the eight field columns and push
  // it through the shared folder. Memory is one accumulator per output
  // row — never a function of the store size; the column bytes stream
  // through the mapping (or the bounded chunk cache) and are never
  // materialized as Samples.
  detail::AggregateFolder folder(spec_, group);
  Sample s;
  for (std::uint64_t pos = 0; pos < n_index_; ++pos) {
    const std::uint64_t item = u64_at(columns_[0].offset + 8 * pos);
    const std::uint64_t phys = u64_at(columns_[1].offset + 8 * pos);
    const std::uint64_t base = phys * per_item_;
    for (std::size_t ai = 0; ai < na; ++ai) {
      for (std::size_t ei = 0; ei < ne; ++ei) {
        const std::uint64_t k = base + ai * ne + ei;
        for (std::size_t f = 0; f < 8; ++f) {
          kFieldSet[f](s, f64_at(columns_[3 + f].offset + 8 * k));
        }
        folder.add(static_cast<std::size_t>(item), ai, ei, s);
      }
    }
  }
  agg_samples.add(n_index_ * per_item_);
  agg_ns.record(tel::now_ns() - t0);
  aggregates.add();
  return folder.rows();
}

ResultStore ColumnarStore::materialize() const {
  ResultStore store(spec_);
  std::vector<Sample> samples;
  for (std::uint64_t pos = 0; pos < n_index_; ++pos) {
    const std::uint64_t phys = u64_at(columns_[1].offset + 8 * pos);
    if (u8_at(columns_[2].offset + phys) == 0) continue;
    WorkItem item;
    item.index = item_at(pos);
    samples_at(pos, samples);
    store.record_item(item, samples);
  }
  const std::size_t na = spec_.apps.size();
  for (std::size_t ri = 0; ri < spec_.records.size(); ++ri) {
    for (std::size_t ai = 0; ai < na; ++ai) {
      store.set_max_snr(ri, ai, max_snr_[ri * na + ai]);
    }
  }
  return store;
}

// ---------------------------------------------------------------------------
// Merge-by-append.

void ColumnarStore::append_merge(const std::vector<std::string>& inputs,
                                 const std::string& out_path,
                                 const CampaignSpec& spec,
                                 const AppendOptions& options) {
  ULPDREAM_TRACE_SPAN("store.append_merge");
  namespace tel = util::telemetry;
  static const tel::Counter appends("store.columnar.appends");
  static const tel::Counter append_bytes("store.columnar.append_bytes");
  static const tel::Histogram append_ns("store.columnar.append_ns");
  const std::uint64_t t0 = tel::now_ns();
  if (inputs.empty()) {
    throw std::invalid_argument(
        "ColumnarStore::append_merge: no input stores");
  }

  // Open every input bounded (sequential copies hit a small chunk cache;
  // memory never scales with the sample data). Validation — fingerprints
  // against `spec`, structure against the file — happens in open().
  OpenOptions bounded;
  bounded.bounded_memory = true;
  bounded.cache_chunk_bytes = 1u << 20;
  bounded.cache_chunks = 4;
  std::vector<ColumnarStore> stores;
  stores.reserve(inputs.size());
  for (const std::string& path : inputs) {
    stores.push_back(open(path, spec, bounded));
  }
  const CampaignSpec& nspec = stores.front().spec_;
  const std::uint64_t pi = stores.front().per_item_;

  // Merged index: every input's (item, physical slot, done) with slots
  // rebased onto the concatenated columns; sorted by item, stable in
  // input order. The first done occurrence of a duplicated item wins —
  // the same rule ResultStore::merge applies pairwise — and duplicate
  // sample bytes stay in the file as unreferenced slots rather than
  // being compacted (append never rewrites sample bytes).
  struct Entry {
    std::uint64_t item;
    std::uint64_t phys;   ///< slot rebased onto the concatenated columns
    std::uint32_t store;  ///< input the slot lives in (canonical copies)
    std::uint64_t slot;   ///< slot inside that input
    std::uint8_t done;
  };
  std::vector<Entry> entries;
  std::uint64_t n_physical = 0;
  for (std::uint32_t si = 0; si < stores.size(); ++si) {
    const ColumnarStore& s = stores[si];
    for (std::uint64_t i = 0; i < s.n_index_; ++i) {
      const std::uint64_t item = s.u64_at(s.columns_[0].offset + 8 * i);
      const std::uint64_t slot = s.u64_at(s.columns_[1].offset + 8 * i);
      const std::uint8_t done = s.u8_at(s.columns_[2].offset + slot);
      entries.push_back(Entry{item, n_physical + slot, si, slot, done});
    }
    n_physical += s.n_physical_;
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.item < b.item;
                   });
  std::vector<Entry> merged;
  merged.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size();) {
    std::size_t j = i;
    std::size_t pick = i;
    for (; j < entries.size() && entries[j].item == entries[i].item; ++j) {
      if (entries[pick].done == 0 && entries[j].done != 0) pick = j;
    }
    merged.push_back(entries[pick]);
    i = j;
  }

  // Max-SNR ceilings: first non-NaN wins across inputs in order (the
  // pairwise merge rule, applied left to right).
  std::vector<double> max_snr = stores.front().max_snr_;
  for (const ColumnarStore& s : stores) {
    for (std::size_t i = 0; i < max_snr.size(); ++i) {
      if (std::isnan(max_snr[i])) max_snr[i] = s.max_snr_[i];
    }
  }

  if (options.canonical) {
    // Canonical mode persists done entries only — the same "a save never
    // writes unexecuted slots" rule as ResultStore::save_columnar, whose
    // byte layout this mode reproduces exactly.
    std::erase_if(merged, [](const Entry& e) { return e.done == 0; });
    n_physical = merged.size();
  }

  const std::string fingerprint = nspec.fingerprint();
  const Layout l = compute_layout(merged.size(), n_physical, pi,
                                  fingerprint.size(), max_snr.size());

  const std::string tmp = staging_name(out_path);
  try {
    BufferedFileWriter w(tmp);
    write_header(w, l, fingerprint, max_snr, merged.size(), n_physical, pi);
    for (const Entry& e : merged) w.put_u64(e.item);
    if (options.canonical) {
      for (std::uint64_t i = 0; i < merged.size(); ++i) w.put_u64(i);
    } else {
      for (const Entry& e : merged) w.put_u64(e.phys);
    }
    std::vector<char> copy_buf(1u << 20);
    if (options.canonical) {
      // Slots rewritten in sorted item order: the done column is all
      // ones and each entry's sample row is gathered from its source
      // store — one pi-wide row read per entry per field column, still
      // never decoding a sample.
      for (std::uint64_t i = 0; i < merged.size(); ++i) {
        const std::uint8_t done = 1;
        w.put_bytes(&done, 1);
      }
      w.pad_to(l.column_offset[2] + align8(l.column_bytes[2]));
      const std::size_t row_bytes = static_cast<std::size_t>(8 * pi);
      copy_buf.resize(row_bytes);
      for (std::size_t f = 0; f < 8; ++f) {
        for (const Entry& e : merged) {
          const ColumnarStore& s = stores[e.store];
          s.reader_->read(s.columns_[3 + f].offset + e.slot * row_bytes,
                          copy_buf.data(), row_bytes);
          w.put_bytes(copy_buf.data(), row_bytes);
        }
      }
    } else {
      // Done and sample columns: verbatim concatenation of the inputs'
      // columns, streamed through a fixed-size copy buffer.
      const auto copy_column = [&](std::size_t col) {
        for (const ColumnarStore& s : stores) {
          std::uint64_t off = s.columns_[col].offset;
          std::uint64_t left = s.columns_[col].bytes;
          while (left > 0) {
            const std::size_t take = static_cast<std::size_t>(
                std::min<std::uint64_t>(copy_buf.size(), left));
            s.reader_->read(off, copy_buf.data(), take);
            w.put_bytes(copy_buf.data(), take);
            off += take;
            left -= take;
          }
        }
      };
      copy_column(2);
      w.pad_to(l.column_offset[2] + align8(l.column_bytes[2]));
      for (std::size_t f = 0; f < 8; ++f) copy_column(3 + f);
    }
    if (w.written() != l.file_bytes) {
      throw StoreError(tmp, "internal layout mismatch while appending");
    }
    w.finish();
    util::publish_file_atomic(tmp, out_path);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  append_ns.record(tel::now_ns() - t0);
  append_bytes.add(l.file_bytes);
  appends.add();
}

}  // namespace ulpdream::campaign
