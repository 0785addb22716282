#pragma once
// Tiny flag parser for examples/benches: --key=value / --key value / --flag.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ulpdream::util {

/// Splits a separator-delimited flag value ("a,b,c") into its non-empty
/// elements — the shared parser for list-shaped CLI flags.
[[nodiscard]] std::vector<std::string> split_list(const std::string& list,
                                                  char sep = ',');

class Cli {
 public:
  Cli(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& def) const;
  /// `def` when --key is absent; otherwise the whole value parsed as a
  /// number (get_int: a signed decimal integer, so no fraction). Trailing
  /// junk, an empty value or one out of range throws
  /// std::invalid_argument naming --key and the value.
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t def) const;

  /// Positional (non --key) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Every --key the user gave, sorted — drivers that enforce a flag
  /// allowlist iterate this to name the offending flag exactly.
  [[nodiscard]] std::vector<std::string> keys() const {
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto& [key, value] : values_) out.push_back(key);
    return out;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace ulpdream::util
