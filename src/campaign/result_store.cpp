#include "ulpdream/campaign/result_store.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "aggregate_fold.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace ulpdream::campaign {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

}  // namespace

ResultStore::ResultStore(CampaignSpec spec) : spec_(std::move(spec)) {
  max_snr_.assign(spec_.records.size() * spec_.apps.size(), kNan);
}

ResultStore::ResultStore(CampaignSpec spec, std::span<const WorkItem> items)
    : ResultStore(std::move(spec)) {
  item_index_.reserve(items.size());
  for (const WorkItem& item : items) {
    if (item.index >= spec_.item_count()) {
      throw std::invalid_argument("ResultStore: item index out of range");
    }
    item_index_.push_back(item.index);
  }
  std::sort(item_index_.begin(), item_index_.end());
  item_index_.erase(std::unique(item_index_.begin(), item_index_.end()),
                    item_index_.end());
  item_done_.assign(item_index_.size(), 0);
  samples_.resize(item_index_.size() * per_item());
}

std::size_t ResultStore::find_slot(std::size_t item) const noexcept {
  const auto it =
      std::lower_bound(item_index_.begin(), item_index_.end(), item);
  if (it == item_index_.end() || *it != item) return kNoSlot;
  return static_cast<std::size_t>(it - item_index_.begin());
}

std::size_t ResultStore::insert_slot(std::size_t item) {
  const auto it =
      std::lower_bound(item_index_.begin(), item_index_.end(), item);
  const auto slot = static_cast<std::size_t>(it - item_index_.begin());
  if (it != item_index_.end() && *it == item) return slot;
  item_index_.insert(it, item);
  item_done_.insert(item_done_.begin() + static_cast<std::ptrdiff_t>(slot), 0);
  samples_.insert(
      samples_.begin() + static_cast<std::ptrdiff_t>(slot * per_item()),
      per_item(), Sample{});
  return slot;
}

void ResultStore::record_item(const WorkItem& item,
                              const std::vector<Sample>& samples) {
  if (item.index >= spec_.item_count() || samples.size() != per_item()) {
    throw std::invalid_argument("ResultStore::record_item: bad item/samples");
  }
  std::size_t slot = find_slot(item.index);
  if (slot == kNoSlot) slot = insert_slot(item.index);
  const std::size_t base = slot * per_item();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples_[base + i] = samples[i];
  }
  item_done_[slot] = 1;
}

void ResultStore::set_max_snr(std::size_t record_index, std::size_t app_index,
                              double snr_db) {
  max_snr_.at(record_index * spec_.apps.size() + app_index) = snr_db;
}

double ResultStore::max_snr_db(std::size_t record_index,
                               std::size_t app_index) const {
  return max_snr_.at(record_index * spec_.apps.size() + app_index);
}

std::size_t ResultStore::items_done() const noexcept {
  std::size_t n = 0;
  for (char done : item_done_) n += done ? 1 : 0;
  return n;
}

bool ResultStore::complete() const noexcept {
  return items_done() == spec_.item_count();
}

bool ResultStore::item_done(std::size_t item_index) const noexcept {
  const std::size_t slot = find_slot(item_index);
  return slot != kNoSlot && item_done_[slot] != 0;
}

void ResultStore::merge(const ResultStore& other) {
  ULPDREAM_TRACE_SPAN("store.merge");
  static const util::telemetry::Counter merges("store.merges");
  static const util::telemetry::Histogram merge_ns("store.merge_ns");
  const std::uint64_t t0 = util::telemetry::now_ns();
  if (spec_.fingerprint() != other.spec_.fingerprint()) {
    throw std::invalid_argument(
        "ResultStore::merge: spec fingerprint mismatch — refusing to mix "
        "results from different campaign grids\n  this:  " +
        spec_.fingerprint() + "\n  other: " + other.spec_.fingerprint());
  }
  // Two-pointer merge of the sorted slot indices into fresh arrays: done
  // items already present here win, the other store fills the gaps.
  const std::size_t pi = per_item();
  std::vector<std::size_t> index;
  std::vector<char> done;
  std::vector<Sample> samples;
  index.reserve(item_index_.size() + other.item_index_.size());
  std::size_t a = 0;
  std::size_t b = 0;
  const auto append = [&](const ResultStore& from, std::size_t slot) {
    index.push_back(from.item_index_[slot]);
    done.push_back(from.item_done_[slot]);
    samples.insert(samples.end(), from.samples_.begin() + slot * pi,
                   from.samples_.begin() + (slot + 1) * pi);
  };
  while (a < item_index_.size() || b < other.item_index_.size()) {
    if (b >= other.item_index_.size() ||
        (a < item_index_.size() && item_index_[a] < other.item_index_[b])) {
      append(*this, a++);
    } else if (a >= item_index_.size() ||
               other.item_index_[b] < item_index_[a]) {
      append(other, b++);
    } else {
      if (item_done_[a] || !other.item_done_[b]) {
        append(*this, a);
      } else {
        append(other, b);
      }
      ++a;
      ++b;
    }
  }
  item_index_ = std::move(index);
  item_done_ = std::move(done);
  samples_ = std::move(samples);
  for (std::size_t i = 0; i < max_snr_.size(); ++i) {
    if (std::isnan(max_snr_[i])) max_snr_[i] = other.max_snr_[i];
  }
  merge_ns.record(util::telemetry::now_ns() - t0);
  merges.add();
}

std::vector<AggregateRow> ResultStore::aggregate(const GroupBy& group) const {
  if (!complete()) {
    throw std::logic_error(
        "ResultStore::aggregate: store incomplete — merge all shards first");
  }
  const std::size_t na = spec_.apps.size();
  const std::size_t ne = spec_.emts.size();

  // Canonical fold order: item index major, then app, then EMT — the slot
  // index is sorted by item, so this is a linear walk and every group
  // receives its samples in the same order however the campaign was
  // executed (and identically to the streaming columnar path, which feeds
  // the same folder in the same order).
  detail::AggregateFolder folder(spec_, group);
  for (std::size_t slot = 0; slot < item_index_.size(); ++slot) {
    const std::size_t item = item_index_[slot];
    const std::size_t base = slot * na * ne;
    for (std::size_t ai = 0; ai < na; ++ai) {
      for (std::size_t ei = 0; ei < ne; ++ei) {
        folder.add(item, ai, ei, samples_[base + ai * ne + ei]);
      }
    }
  }
  return folder.rows();
}

std::span<const AggregateRow> app_slice(const CampaignSpec& spec,
                                        std::span<const AggregateRow> rows,
                                        std::size_t record_index,
                                        std::size_t app_index) {
  if (rows.size() != spec.cell_count() ||
      record_index >= spec.records.size() || app_index >= spec.apps.size()) {
    throw std::invalid_argument(
        "app_slice: rows are not the full grid, or a bad index");
  }
  // The full-GroupBy rows run record, app, EMT, voltage (minor), so this
  // (record, app) slice is contiguous.
  const std::size_t size = spec.emts.size() * spec.voltages.size();
  return rows.subspan((record_index * spec.apps.size() + app_index) * size,
                      size);
}

const AggregateRow* find_row(std::span<const AggregateRow> rows,
                             std::string_view emt, double voltage) {
  for (const AggregateRow& r : rows) {
    if (r.emt == emt && std::fabs(r.voltage - voltage) < 1e-6) return &r;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Serialization.

namespace {

std::string fmt_voltage(double v) {
  return std::isnan(v) ? "*" : util::fmt_exact(v);
}

double parse_voltage(const std::string& cell) {
  return cell == "*" ? kNan : util::parse_double_exact(cell);
}

/// Parses data row `row` (1-based; the header is row 0). Every rejection
/// names the reader, the row and the column.
AggregateRow row_from_cells(const std::vector<std::string>& cells,
                            std::size_t row) {
  const std::vector<std::string>& header = aggregate_csv_header();
  if (cells.size() != header.size()) {
    throw std::invalid_argument(
        "read_rows_csv: row " + std::to_string(row) + " has " +
        std::to_string(cells.size()) + " columns, expected " +
        std::to_string(header.size()));
  }
  std::size_t c = 0;
  const auto cell = [&](auto parse) {
    const std::size_t col = c++;
    try {
      return parse(cells[col]);
    } catch (const std::invalid_argument&) {
      throw std::invalid_argument("read_rows_csv: row " +
                                  std::to_string(row) + ", column " +
                                  header[col] + ": bad value \"" +
                                  cells[col] + "\"");
    }
  };
  AggregateRow r;
  r.record = cells[c++];
  r.app = cells[c++];
  r.emt = cells[c++];
  r.voltage = cell(parse_voltage);
  r.n = static_cast<std::size_t>(cell(util::parse_u64_exact));
  r.snr_mean_db = cell(util::parse_double_exact);
  r.snr_stddev_db = cell(util::parse_double_exact);
  r.snr_min_db = cell(util::parse_double_exact);
  r.snr_max_db = cell(util::parse_double_exact);
  r.snr_p10_db = cell(util::parse_double_exact);
  r.energy_mean_j = cell(util::parse_double_exact);
  r.data_dynamic_j = cell(util::parse_double_exact);
  r.side_dynamic_j = cell(util::parse_double_exact);
  r.codec_j = cell(util::parse_double_exact);
  r.data_leak_j = cell(util::parse_double_exact);
  r.side_leak_j = cell(util::parse_double_exact);
  r.corrected_mean = cell(util::parse_double_exact);
  r.detected_mean = cell(util::parse_double_exact);
  return r;
}

}  // namespace

const std::vector<std::string>& aggregate_csv_header() {
  static const std::vector<std::string> kHeader = {
      "record",        "app",
      "emt",           "voltage",
      "n",             "snr_mean_db",
      "snr_stddev_db", "snr_min_db",
      "snr_max_db",    "snr_p10_db",
      "energy_mean_j", "data_dynamic_j",
      "side_dynamic_j", "codec_j",
      "data_leak_j",   "side_leak_j",
      "corrected_mean", "detected_mean"};
  return kHeader;
}

void write_rows_csv(std::ostream& os, const std::vector<AggregateRow>& rows) {
  util::CsvWriter(os).write_row(aggregate_csv_header());
  // Each row is formatted into one reused line: the same bytes CsvWriter
  // writes for the row's cells, without a string per cell.
  std::string line;
  for (const AggregateRow& r : rows) {
    line.clear();
    for (const std::string* text : {&r.record, &r.app, &r.emt}) {
      line += util::CsvWriter::escape(*text);
      line += ',';
    }
    if (std::isnan(r.voltage)) {
      line += '*';
    } else {
      util::append_exact(line, r.voltage);
    }
    line += ',';
    line += std::to_string(r.n);
    for (const double v :
         {r.snr_mean_db, r.snr_stddev_db, r.snr_min_db, r.snr_max_db,
          r.snr_p10_db, r.energy_mean_j, r.data_dynamic_j, r.side_dynamic_j,
          r.codec_j, r.data_leak_j, r.side_leak_j, r.corrected_mean,
          r.detected_mean}) {
      line += ',';
      util::append_exact(line, v);
    }
    line += '\n';
    os.write(line.data(), static_cast<std::streamsize>(line.size()));
  }
}

std::vector<AggregateRow> read_rows_csv(std::istream& is) {
  const auto parsed = util::parse_csv(is);
  if (parsed.empty() || parsed.front() != aggregate_csv_header()) {
    throw std::invalid_argument("read_rows_csv: missing/unknown header");
  }
  std::vector<AggregateRow> rows;
  rows.reserve(parsed.size() - 1);
  for (std::size_t i = 1; i < parsed.size(); ++i) {
    rows.push_back(row_from_cells(parsed[i], i));
  }
  return rows;
}

// JSON export of the flat document {"rows": [{<string|number|null
// fields>}, ...]}. Nothing reads it back.

void write_rows_json(std::ostream& os, const std::vector<AggregateRow>& rows) {
  auto num = [&](const char* key, double v, bool last = false) {
    os << '"' << key << "\":";
    if (std::isnan(v)) {
      os << "null";
    } else if (std::isinf(v)) {
      // Bare inf is not JSON, so it is written as the string "inf".
      os << (v > 0 ? "\"inf\"" : "\"-inf\"");
    } else {
      os << util::fmt_exact(v);
    }
    if (!last) os << ',';
  };
  os << "{\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const AggregateRow& r = rows[i];
    if (i) os << ',';
    os << "\n{";
    os << "\"record\":";
    util::json_escape(os, r.record);
    os << ",\"app\":";
    util::json_escape(os, r.app);
    os << ",\"emt\":";
    util::json_escape(os, r.emt);
    os << ',';
    num("voltage", r.voltage);
    os << "\"n\":" << r.n << ',';
    num("snr_mean_db", r.snr_mean_db);
    num("snr_stddev_db", r.snr_stddev_db);
    num("snr_min_db", r.snr_min_db);
    num("snr_max_db", r.snr_max_db);
    num("snr_p10_db", r.snr_p10_db);
    num("energy_mean_j", r.energy_mean_j);
    num("data_dynamic_j", r.data_dynamic_j);
    num("side_dynamic_j", r.side_dynamic_j);
    num("codec_j", r.codec_j);
    num("data_leak_j", r.data_leak_j);
    num("side_leak_j", r.side_leak_j);
    num("corrected_mean", r.corrected_mean);
    num("detected_mean", r.detected_mean, /*last=*/true);
    os << '}';
  }
  os << "\n]}\n";
}

util::Table rows_to_table(const std::vector<AggregateRow>& rows,
                          const std::string& title) {
  util::Table table(title);
  table.set_header({"record", "app", "emt", "V", "n", "snr_dB", "sd_dB",
                    "p10_dB", "energy_uJ", "corr", "det"});
  for (const AggregateRow& r : rows) {
    table.add_row({r.record, r.app, r.emt, fmt_voltage(r.voltage),
                   std::to_string(r.n), util::fmt(r.snr_mean_db, 1),
                   util::fmt(r.snr_stddev_db, 1), util::fmt(r.snr_p10_db, 1),
                   util::fmt(r.energy_mean_j * 1e6, 4),
                   util::fmt(r.corrected_mean, 1),
                   util::fmt(r.detected_mean, 2)});
  }
  return table;
}

}  // namespace ulpdream::campaign
