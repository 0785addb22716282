#include "ulpdream/campaign/columnar.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <span>
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
/// writer and the reader so a layout bug cannot split between them.
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
                  std::span<const double> max_snr, std::uint64_t n,
                  std::uint64_t per_item) {
  w.put_bytes(kColumnarMagic, sizeof(kColumnarMagic));
  w.put_u32(kVersion);
  w.put_u32(kEndianTag);
  w.put_u64(l.file_bytes);
  w.put_u64(n);  // indexed items
  w.put_u64(n);  // physical slots: one per item, in item order
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

/// The one writer of the format, shared by save_columnar and
/// append_merge: header, the `n` sorted items (`item(i)`), the identity
/// slot_of, an all-ones done column, then each field column in item
/// order (`put_rows(w, f)` writes field f's n x per_item doubles). Stages
/// under a process-unique name, publishes atomically and returns the file
/// size; the staging file is removed on every failure path.
template <typename ItemAt, typename PutRows>
std::uint64_t write_store(const std::string& path,
                          const std::string& fingerprint,
                          std::span<const double> max_snr, std::uint64_t n,
                          std::uint64_t per_item, ItemAt item,
                          PutRows put_rows) {
  const Layout l =
      compute_layout(n, n, per_item, fingerprint.size(), max_snr.size());
  const std::string tmp = staging_name(path);
  try {
    BufferedFileWriter w(tmp);
    write_header(w, l, fingerprint, max_snr, n, per_item);
    for (std::uint64_t i = 0; i < n; ++i) w.put_u64(item(i));
    for (std::uint64_t i = 0; i < n; ++i) w.put_u64(i);
    const std::uint8_t done = 1;
    for (std::uint64_t i = 0; i < n; ++i) w.put_bytes(&done, 1);
    w.pad_to(l.column_offset[3]);
    for (std::size_t f = 0; f < 8; ++f) put_rows(w, f);
    if (w.written() != l.file_bytes) {
      throw StoreError(tmp, "internal layout mismatch while writing");
    }
    w.finish();
    util::publish_file_atomic(tmp, path);
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  return l.file_bytes;
}

/// Sorted-index entries per scan block: each block reads one slice of
/// every column it needs (64 KiB of a per-item-2 field column).
constexpr std::uint64_t kScanBlock = 4096;
constexpr unsigned kAllFields = 0xFF;

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw StoreError(path, "columnar store: " + what);
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
  const std::uint64_t pi = per_item();
  const std::uint64_t bytes = write_store(
      path, spec_.fingerprint(), max_snr_, done_slots.size(), pi,
      [&](std::uint64_t i) { return item_index_[done_slots[i]]; },
      [&](BufferedFileWriter& w, std::size_t f) {
        for (const std::size_t slot : done_slots) {
          const Sample* s = samples_.data() + slot * pi;
          for (std::uint64_t k = 0; k < pi; ++k) {
            w.put_f64(kFieldGet[f](s[k]));
          }
        }
      });
  save_ns.record(tel::now_ns() - t0);
  save_bytes.add(bytes);
  saves.add();
}

// ---------------------------------------------------------------------------
// Reader.

/// One block of the sorted index: entries [pos, pos + n), their items,
/// physical slots and done flags, and — for the fields a scan asked for —
/// their sample rows (per field: n x per_item doubles, entry-major).
struct ColumnarStore::Block {
  std::uint64_t pos = 0;
  std::uint64_t n = 0;
  std::vector<std::uint64_t> items;
  std::vector<std::uint64_t> slots;
  std::vector<std::uint8_t> done;
  std::vector<double> rows[8];
};

bool ColumnarStore::next_block(Block& b, unsigned fields) const {
  const bool has_prev = b.n != 0;
  std::uint64_t prev = has_prev ? b.items[b.n - 1] : 0;
  b.pos += b.n;
  b.n = std::min(kScanBlock, n_index_ - b.pos);
  if (b.n == 0) return false;

  b.items.resize(b.n);
  b.slots.resize(b.n);
  reader_.read(columns_[0].offset + 8 * b.pos, b.items.data(), 8 * b.n);
  reader_.read(columns_[1].offset + 8 * b.pos, b.slots.data(), 8 * b.n);
  const std::uint64_t item_count = spec_.item_count();
  bool contiguous = true;
  for (std::uint64_t i = 0; i < b.n; ++i) {
    const std::uint64_t item = b.items[i];
    const std::uint64_t slot = b.slots[i];
    if (item >= item_count) {
      fail(path(), "index entry " + std::to_string(b.pos + i) + " names item " +
                      std::to_string(item) + " outside the campaign grid");
    }
    if ((i != 0 || has_prev) && item <= prev) {
      fail(path(), "item index is not strictly ascending at entry " +
                      std::to_string(b.pos + i));
    }
    if (slot >= n_physical_) {
      fail(path(), "index entry " + std::to_string(b.pos + i) +
                      " points at physical slot " + std::to_string(slot) +
                      " of " + std::to_string(n_physical_));
    }
    contiguous = contiguous && slot == b.slots[0] + i;
    prev = item;
  }

  // Contiguous slots (every file written by save_columnar or append_merge)
  // take one read per column; a permuted slot_of (older verbatim appends)
  // falls back to one read per entry.
  const std::uint64_t first = b.slots[0];
  b.done.resize(b.n);
  if (contiguous) {
    reader_.read(columns_[2].offset + first, b.done.data(), b.n);
  } else {
    for (std::uint64_t i = 0; i < b.n; ++i) {
      b.done[i] = reader_.pod_at<std::uint8_t>(columns_[2].offset +
                                               b.slots[i]);
    }
  }
  const std::uint64_t row_bytes = 8 * per_item_;
  for (std::size_t f = 0; f < 8; ++f) {
    if ((fields & (1u << f)) == 0) continue;
    std::vector<double>& rows = b.rows[f];
    rows.resize(b.n * per_item_);
    const std::uint64_t base = columns_[3 + f].offset;
    if (contiguous) {
      reader_.read(base + first * row_bytes, rows.data(), b.n * row_bytes);
    } else {
      for (std::uint64_t i = 0; i < b.n; ++i) {
        reader_.read(base + b.slots[i] * row_bytes,
                     rows.data() + i * per_item_, row_bytes);
      }
    }
  }
  return true;
}

ColumnarStore ColumnarStore::open(const std::string& path,
                                  const CampaignSpec& spec) {
  ULPDREAM_TRACE_SPAN("store.open_columnar");
  namespace tel = util::telemetry;
  static const tel::Counter opens("store.columnar.opens");
  static const tel::Histogram open_ns("store.columnar.open_ns");
  const std::uint64_t t0 = tel::now_ns();

  ColumnarStore store = [&path] {
    try {
      return ColumnarStore(util::ChunkedFileReader(path));
    } catch (const std::runtime_error& e) {
      throw StoreError(path, e.what());
    }
  }();
  store.spec_ = spec.normalized();
  const util::ChunkedFileReader& r = store.reader_;
  const std::uint64_t size = r.size();

  // Header. Every count is validated against the real file size before
  // anything derived from it is read — a truncated or lying file fails
  // typed, never with a read off the end.
  if (size < kFixedHeaderBytes) fail(path, "truncated header");
  char magic[8];
  r.read(0, magic, sizeof(magic));
  if (std::memcmp(magic, kColumnarMagic, sizeof(magic)) != 0) {
    fail(path, "bad magic (not a columnar store file)");
  }
  const auto version = r.pod_at<std::uint32_t>(8);
  if (version != kVersion) {
    fail(path, "unsupported version " + std::to_string(version) +
                   " (expected " + std::to_string(kVersion) + ")");
  }
  if (r.pod_at<std::uint32_t>(12) != kEndianTag) {
    fail(path,
         "endianness mismatch — file was written on a foreign-endian host");
  }
  const std::uint64_t file_bytes = store.u64_at(16);
  if (file_bytes != size) {
    fail(path, "truncated or padded file (header records " +
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
    fail(path, "per-item sample count " + std::to_string(store.per_item_) +
                   " disagrees with the campaign spec (" +
                   std::to_string(want_pi) + ")");
  }
  if (fingerprint_len > size - kFixedHeaderBytes) {
    fail(path, "truncated fingerprint");
  }
  std::string fingerprint(fingerprint_len, '\0');
  r.read(kFixedHeaderBytes, fingerprint.data(), fingerprint_len);
  if (fingerprint != store.spec_.fingerprint()) {
    fail(path,
         "spec fingerprint mismatch — the file was saved for a different "
         "campaign grid\n  expected: " +
             store.spec_.fingerprint() + "\n  file:     " + fingerprint);
  }
  if (max_snr_count !=
      store.spec_.records.size() * store.spec_.apps.size()) {
    fail(path, "max_snr count disagrees with the campaign spec");
  }

  const Layout l = compute_layout(store.n_index_, store.n_physical_,
                                  store.per_item_, fingerprint_len,
                                  max_snr_count);
  if (l.file_bytes != size) {
    fail(path,
         "index/column lengths disagree with the file size (layout needs " +
             std::to_string(l.file_bytes) + " bytes, file has " +
             std::to_string(size) + ")");
  }
  store.max_snr_.resize(max_snr_count);
  r.read(kFixedHeaderBytes + l.fingerprint_pad, store.max_snr_.data(),
         8 * max_snr_count);
  if (store.u64_at(l.dir_offset) != kNumColumns) {
    fail(path, "unexpected column count " +
                   std::to_string(store.u64_at(l.dir_offset)));
  }
  store.columns_.resize(kNumColumns);
  for (std::size_t c = 0; c < kNumColumns; ++c) {
    store.columns_[c].offset = store.u64_at(l.dir_offset + 8 + 16 * c);
    store.columns_[c].bytes = store.u64_at(l.dir_offset + 16 + 16 * c);
    if (store.columns_[c].offset != l.column_offset[c] ||
        store.columns_[c].bytes != l.column_bytes[c]) {
      fail(path, "column " + std::to_string(c) +
                     " directory entry disagrees with the index counts "
                     "(offset " +
                     std::to_string(store.columns_[c].offset) + ", " +
                     std::to_string(store.columns_[c].bytes) +
                     " bytes; expected " +
                     std::to_string(l.column_offset[c]) + ", " +
                     std::to_string(l.column_bytes[c]) + ")");
    }
  }

  // Index validation happens in the scan; counting done flags on the way
  // makes open() read the index columns but never a sample column.
  Block b;
  while (store.next_block(b, 0)) {
    for (std::uint64_t i = 0; i < b.n; ++i) {
      if (b.done[i] != 0) ++store.items_done_;
    }
  }

  open_ns.record(tel::now_ns() - t0);
  opens.add();
  return store;
}

std::size_t ColumnarStore::item_at(std::size_t sorted_pos) const {
  if (sorted_pos >= n_index_) {
    throw StoreError(path(), "item_at: position out of range");
  }
  return static_cast<std::size_t>(
      u64_at(columns_[0].offset + 8 * sorted_pos));
}

void ColumnarStore::samples_at(std::size_t sorted_pos,
                               std::vector<Sample>& out) const {
  if (sorted_pos >= n_index_) {
    throw StoreError(path(), "samples_at: position out of range");
  }
  const std::uint64_t phys = u64_at(columns_[1].offset + 8 * sorted_pos);
  out.assign(per_item_, Sample{});
  for (std::size_t f = 0; f < 8; ++f) {
    const std::uint64_t base =
        columns_[3 + f].offset + 8 * phys * per_item_;
    for (std::uint64_t k = 0; k < per_item_; ++k) {
      kFieldSet[f](out[k], reader_.pod_at<double>(base + 8 * k));
    }
  }
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

  // The streaming fold: walk the sorted index (canonical item order) a
  // block at a time, assemble each (app, EMT) sample from the block's
  // eight field rows and push it through the shared folder. Memory is
  // one accumulator per output row plus one block — never a function of
  // the store size.
  detail::AggregateFolder folder(spec_, group);
  Sample s;
  Block b;
  while (next_block(b, kAllFields)) {
    for (std::uint64_t i = 0; i < b.n; ++i) {
      const auto item = static_cast<std::size_t>(b.items[i]);
      for (std::size_t ai = 0; ai < na; ++ai) {
        for (std::size_t ei = 0; ei < ne; ++ei) {
          const std::uint64_t k = i * per_item_ + ai * ne + ei;
          for (std::size_t f = 0; f < 8; ++f) {
            kFieldSet[f](s, b.rows[f][k]);
          }
          folder.add(item, ai, ei, s);
        }
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
  std::vector<Sample> samples(per_item_);
  WorkItem item;
  Block b;
  while (next_block(b, kAllFields)) {
    for (std::uint64_t i = 0; i < b.n; ++i) {
      if (b.done[i] == 0) continue;
      for (std::uint64_t k = 0; k < per_item_; ++k) {
        for (std::size_t f = 0; f < 8; ++f) {
          kFieldSet[f](samples[k], b.rows[f][i * per_item_ + k]);
        }
      }
      item.index = static_cast<std::size_t>(b.items[i]);
      store.record_item(item, samples);
    }
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
                                 const CampaignSpec& spec) {
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

  // Validation — fingerprints against `spec`, structure against the
  // file — happens in open().
  std::vector<ColumnarStore> stores;
  stores.reserve(inputs.size());
  for (const std::string& path : inputs) {
    stores.push_back(open(path, spec));
  }
  const std::uint64_t pi = stores.front().per_item_;

  // Merged index: every input's done entries, sorted by item, stable in
  // input order, so the first done occurrence of a duplicated item wins —
  // the rule ResultStore::merge applies pairwise. Entries that are not
  // done are never persisted (the save_columnar rule).
  struct Entry {
    std::uint64_t item;
    std::uint64_t pos;    ///< sorted position inside its input
    std::uint32_t store;  ///< input index
  };
  std::vector<Entry> entries;
  for (std::uint32_t si = 0; si < stores.size(); ++si) {
    Block b;
    while (stores[si].next_block(b, 0)) {
      for (std::uint64_t i = 0; i < b.n; ++i) {
        if (b.done[i] != 0) entries.push_back({b.items[i], b.pos + i, si});
      }
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.item < b.item;
                   });
  entries.erase(std::unique(entries.begin(), entries.end(),
                            [](const Entry& a, const Entry& b) {
                              return a.item == b.item;
                            }),
                entries.end());

  // Max-SNR ceilings: first non-NaN wins across inputs in order (the
  // pairwise merge rule, applied left to right).
  std::vector<double> max_snr = stores.front().max_snr_;
  for (const ColumnarStore& s : stores) {
    for (std::size_t i = 0; i < max_snr.size(); ++i) {
      if (std::isnan(max_snr[i])) max_snr[i] = s.max_snr_[i];
    }
  }

  // One pass per field column: each input is scanned forward in blocks
  // (its surviving entries ascend in sorted position) and each winner's
  // row is copied without decoding a sample.
  const std::uint64_t bytes = write_store(
      out_path, stores.front().spec_.fingerprint(), max_snr, entries.size(),
      pi, [&](std::uint64_t i) { return entries[i].item; },
      [&](BufferedFileWriter& w, std::size_t f) {
        std::vector<Block> cursors(stores.size());
        for (const Entry& e : entries) {
          Block& b = cursors[e.store];
          while (e.pos >= b.pos + b.n) {
            stores[e.store].next_block(b, 1u << f);
          }
          w.put_bytes(b.rows[f].data() + (e.pos - b.pos) * pi, 8 * pi);
        }
      });
  append_ns.record(tel::now_ns() - t0);
  append_bytes.add(bytes);
  appends.add();
}

}  // namespace ulpdream::campaign
