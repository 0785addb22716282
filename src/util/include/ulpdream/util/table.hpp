#pragma once
// Text-table and CSV emitters shared by benches: every reproduced figure
// prints both a human-readable aligned table and (optionally) a CSV file so
// results can be re-plotted. CsvWriter/parse_csv are the machine-readable
// path (RFC-4180 quoting, stable column order, loss-free round trip) used
// by the campaign result store.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ulpdream::util {

/// Streaming RFC-4180-style CSV emitter: cells are quoted only when they
/// contain a separator, quote or newline; embedded quotes are doubled.
/// Rows are written in call order, so the column order is exactly the
/// order the caller emits — stable by construction.
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& os) : os_(os) {}

  void write_row(const std::vector<std::string>& cells);

  /// Quotes/escapes one cell per RFC 4180 (identity for plain cells).
  [[nodiscard]] static std::string escape(const std::string& cell);

 private:
  std::ostream& os_;
};

/// Writes `s` as a JSON string: quoted, with '"', '\\', newline, tab and
/// carriage return escaped and every other byte as is.
void json_escape(std::ostream& os, const std::string& s);

/// Parses CSV as produced by CsvWriter: quoted cells, doubled quotes,
/// embedded separators/newlines inside quotes. Returns one vector of
/// cells per row; a trailing newline does not produce an empty row.
[[nodiscard]] std::vector<std::vector<std::string>> parse_csv(
    std::istream& is);

/// Shortest decimal form that round-trips the exact double value
/// (std::to_chars); the formatter machine-readable exports use.
[[nodiscard]] std::string fmt_exact(double value);

/// Appends fmt_exact(value) to `out`, with no string of its own.
void append_exact(std::string& out, double value);

/// Inverse of fmt_exact; throws std::invalid_argument on malformed input.
[[nodiscard]] double parse_double_exact(const std::string& text);

/// Strict unsigned integer: the whole token is decimal digits (no sign,
/// space or fraction) and fits in 64 bits; anything else throws
/// std::invalid_argument. For counts read back from outside input.
[[nodiscard]] std::uint64_t parse_u64_exact(const std::string& text);

/// Column-aligned text table with a title and optional CSV dump.
class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  /// Sets the column headers; must be called before adding rows.
  void set_header(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t cols() const noexcept { return header_.size(); }

  /// Renders the aligned table to the stream.
  void print(std::ostream& os) const;

  /// Writes the table as CSV (header + rows) to the given path.
  /// Returns false (and leaves no partial file guarantees) on I/O failure.
  bool write_csv(const std::string& path) const;

  /// Streams the table as CSV (header + rows) via CsvWriter.
  void write_csv(std::ostream& os) const;

  [[nodiscard]] std::string to_string() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper used across benches).
[[nodiscard]] std::string fmt(double value, int precision = 3);

}  // namespace ulpdream::util
