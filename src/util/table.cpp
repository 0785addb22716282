#include "ulpdream/util/table.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace ulpdream::util {

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  // A lone empty cell must be quoted: a bare empty line would be
  // indistinguishable from no row at all on the parse side.
  if (cells.size() == 1 && cells[0].empty()) {
    os_ << "\"\"\n";
    return;
  }
  for (std::size_t c = 0; c < cells.size(); ++c) {
    if (c) os_ << ',';
    os_ << escape(cells[c]);
  }
  os_ << '\n';
}

std::string CsvWriter::escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n\r") == std::string::npos) return cell;
  std::string out;
  out.reserve(cell.size() + 2);
  out.push_back('"');
  for (char ch : cell) {
    if (ch == '"') out.push_back('"');
    out.push_back(ch);
  }
  out.push_back('"');
  return out;
}

void json_escape(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default: os << ch; break;
    }
  }
  os << '"';
}

std::vector<std::vector<std::string>> parse_csv(std::istream& is) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string cell;
  bool in_quotes = false;
  bool row_started = false;
  char ch = 0;
  while (is.get(ch)) {
    if (in_quotes) {
      if (ch == '"') {
        if (is.peek() == '"') {
          is.get();
          cell.push_back('"');
        } else {
          in_quotes = false;
        }
      } else {
        cell.push_back(ch);
      }
      continue;
    }
    switch (ch) {
      case '"':
        in_quotes = true;
        row_started = true;
        break;
      case ',':
        row.push_back(std::move(cell));
        cell.clear();
        row_started = true;
        break;
      case '\r':
        break;  // tolerate CRLF
      case '\n':
        if (row_started || !cell.empty()) {
          row.push_back(std::move(cell));
          cell.clear();
          rows.push_back(std::move(row));
          row.clear();
          row_started = false;
        }
        break;
      default:
        cell.push_back(ch);
        row_started = true;
        break;
    }
  }
  if (in_quotes) throw std::invalid_argument("parse_csv: unterminated quote");
  if (row_started || !cell.empty()) {
    row.push_back(std::move(cell));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string fmt_exact(double value) {
  std::string out;
  append_exact(out, value);
  return out;
}

void append_exact(std::string& out, double value) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) throw std::runtime_error("fmt_exact: to_chars");
  out.append(buf, ptr);
}

double parse_double_exact(const std::string& text) {
  double value = 0.0;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) {
    throw std::invalid_argument("parse_double_exact: bad number: " + text);
  }
  return value;
}

std::uint64_t parse_u64_exact(const std::string& text) {
  std::uint64_t value = 0;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) {
    throw std::invalid_argument("parse_u64_exact: bad unsigned integer: " +
                                text);
  }
  return value;
}

void Table::set_header(std::vector<std::string> header) {
  if (!rows_.empty()) {
    throw std::logic_error("Table: set_header after rows were added");
  }
  header_ = std::move(header);
}

void Table::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("Table: row width does not match header");
  }
  rows_.push_back(std::move(row));
}

void Table::print(std::ostream& os) const { os << to_string(); }

std::string Table::to_string() const {
  std::vector<std::size_t> width(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    width[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }

  std::ostringstream os;
  os << "== " << title_ << " ==\n";
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << (c == 0 ? "" : "  ");
      os << row[c];
      for (std::size_t pad = row[c].size(); pad < width[c]; ++pad) os << ' ';
    }
    os << '\n';
  };
  emit_row(header_);
  std::size_t total = 0;
  for (auto w : width) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

bool Table::write_csv(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write_csv(static_cast<std::ostream&>(f));
  return static_cast<bool>(f);
}

void Table::write_csv(std::ostream& os) const {
  CsvWriter csv(os);
  csv.write_row(header_);
  for (const auto& row : rows_) csv.write_row(row);
}

std::string fmt(double value, int precision) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(precision);
  os << value;
  return os.str();
}

}  // namespace ulpdream::util
