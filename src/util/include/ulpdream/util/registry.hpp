#pragma once
// String-keyed component registries — the extension seam of the library.
// A Registry<T> maps a stable name to a factory plus a Descriptor, so new
// EMTs, applications and BER models can be added from *outside* src/ (an
// example, a downstream project, a test) and then selected by name through
// every layer: campaign specs, CLIs and daemon queries. The name is a
// component's only identity. Descriptors carry the metadata a CLI or
// bench needs to enumerate and validate components *without*
// instantiating them: a one-line doc string and capability labels (e.g.
// "corrects-errors", "paper", "extended-tier").
//
// Registration and lookup are thread-safe (mutex-guarded map); factories
// are invoked outside the lock so a factory may itself consult the
// registry. Duplicate registrations and unknown names throw
// std::invalid_argument, the latter listing every valid name — the error
// a CLI user sees for a typo'd --emts flag.

#include <algorithm>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ulpdream::util {

/// Shared capability vocabulary for the component registries' built-in
/// descriptors (user registrations may add their own labels freely).
inline constexpr const char* kCapPaper = "paper";  ///< in the paper's set
inline constexpr const char* kCapExtendedTier = "extended-tier";
inline constexpr const char* kCapCorrectsErrors = "corrects-errors";
inline constexpr const char* kCapDetectsErrors = "detects-errors";
inline constexpr const char* kCapSideMemory = "side-memory";

/// Metadata registered alongside a component factory.
struct Descriptor {
  std::string doc;  ///< one-line description for --list output
  std::vector<std::string> capabilities;  ///< e.g. "paper", "corrects-errors"

  [[nodiscard]] bool has_capability(std::string_view cap) const {
    return std::find(capabilities.begin(), capabilities.end(), cap) !=
           capabilities.end();
  }
};

template <typename T>
class Registry {
 public:
  using Factory = std::function<std::unique_ptr<T>()>;

  /// `noun` names the component family in error messages ("EMT", "app",
  /// "BER model").
  explicit Registry(std::string noun) : noun_(std::move(noun)) {}

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registers `factory` under `name`. Throws std::invalid_argument on an
  /// empty name, a name holding whitespace, ',' or '|' (the separators of
  /// CLI lists and of CampaignSpec::fingerprint(), so {"a b"} and
  /// {"a", "b"} could not be told apart), a null factory or a name that
  /// is already registered.
  void register_factory(const std::string& name, Factory factory,
                        Descriptor desc = {}) {
    if (name.empty()) {
      throw std::invalid_argument(noun_ + " registration: empty name");
    }
    if (name.find_first_of(" \t\n\v\f\r,|") != std::string::npos) {
      throw std::invalid_argument(noun_ + " registration: name '" + name +
                                  "' contains whitespace, ',' or '|'");
    }
    if (!factory) {
      throw std::invalid_argument(noun_ + " registration: null factory for '" +
                                  name + "'");
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    if (entries_.count(name) != 0) {
      throw std::invalid_argument("duplicate " + noun_ + " registration: '" +
                                  name + "'");
    }
    entries_.emplace(name, Entry{std::move(factory), std::move(desc)});
    order_.push_back(name);
  }

  /// Instantiates the component registered under `name`. Throws
  /// std::invalid_argument listing the valid names on an unknown name,
  /// or std::runtime_error when the registered factory returns null —
  /// failing at resolution time instead of deep inside a campaign.
  [[nodiscard]] std::unique_ptr<T> create(const std::string& name) const {
    Factory factory;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = entries_.find(name);
      if (it == entries_.end()) throw unknown_error_locked(name);
      factory = it->second.factory;  // invoke outside the lock
    }
    std::unique_ptr<T> made = factory();
    if (made == nullptr) {
      throw std::runtime_error(noun_ + " factory for '" + name +
                               "' returned null");
    }
    return made;
  }

  /// Descriptor for `name`; throws like create() on an unknown name.
  [[nodiscard]] Descriptor descriptor(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(name);
    if (it == entries_.end()) throw unknown_error_locked(name);
    return it->second.desc;
  }

  [[nodiscard]] bool contains(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.count(name) != 0;
  }

  /// All registered names, in registration order (built-ins first, in
  /// their canonical presentation order).
  [[nodiscard]] std::vector<std::string> names() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return order_;
  }

  /// Names whose descriptor carries `capability`, in registration order.
  [[nodiscard]] std::vector<std::string> names_with(
      std::string_view capability) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    for (const std::string& name : order_) {
      if (entries_.at(name).desc.has_capability(capability)) {
        out.push_back(name);
      }
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return order_.size();
  }

  [[nodiscard]] const std::string& noun() const noexcept { return noun_; }

  /// The space-separated valid-name list used in unknown-name errors;
  /// exposed so axis parsers can compose the same message.
  [[nodiscard]] std::string valid_names() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return valid_names_locked();
  }

 private:
  struct Entry {
    Factory factory;
    Descriptor desc;
  };

  [[nodiscard]] std::string valid_names_locked() const {
    std::string out;
    for (const std::string& name : order_) {
      if (!out.empty()) out += ' ';
      out += name;
    }
    return out;
  }

  [[nodiscard]] std::invalid_argument unknown_error_locked(
      const std::string& name) const {
    return std::invalid_argument("unknown " + noun_ + ": " + name +
                                 " (valid: " + valid_names_locked() + ")");
  }

  mutable std::mutex mutex_;
  std::string noun_;
  std::vector<std::string> order_;
  std::unordered_map<std::string, Entry> entries_;
};

}  // namespace ulpdream::util
