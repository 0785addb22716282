#include "ulpdream/util/cli.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>

namespace ulpdream::util {

namespace {

/// The whole of `value` as a T (std::from_chars: no sign prefix '+', no
/// space, nothing after the number, in range); anything else throws
/// std::invalid_argument naming the flag and the value.
template <typename T>
T parse_flag_value(const std::string& key, const std::string& value,
                   const char* expected) {
  T out{};
  const char* first = value.data();
  const char* last = first + value.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec != std::errc() || ptr != last) {
    throw std::invalid_argument("--" + key + " expects " + expected +
                                ", got '" + value + "'");
  }
  return out;
}

}  // namespace

std::vector<std::string> split_list(const std::string& list, char sep) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(list);
  while (std::getline(is, item, sep)) {
    if (!item.empty()) out.push_back(std::move(item));
  }
  return out;
}

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

bool Cli::has(const std::string& key) const { return values_.count(key) > 0; }

std::string Cli::get(const std::string& key, const std::string& def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

double Cli::get_double(const std::string& key, double def) const {
  const auto it = values_.find(key);
  return it == values_.end()
             ? def
             : parse_flag_value<double>(key, it->second, "a number");
}

std::int64_t Cli::get_int(const std::string& key, std::int64_t def) const {
  const auto it = values_.find(key);
  return it == values_.end()
             ? def
             : parse_flag_value<std::int64_t>(key, it->second, "an integer");
}

bool Cli::get_bool(const std::string& key, bool def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

}  // namespace ulpdream::util
