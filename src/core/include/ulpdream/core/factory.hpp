#pragma once
// Name-addressed EMT construction. The registry is the only interface:
// built-ins register themselves on first access, user techniques register
// from anywhere (an example, a test, a downstream project) and are then
// selectable by name through campaign specs, the CLI and the daemon.

#include <memory>
#include <string>
#include <vector>

#include "ulpdream/core/emt.hpp"
#include "ulpdream/util/registry.hpp"

namespace ulpdream::core {

/// Capability labels (defined next to util::Descriptor so every registry
/// shares one vocabulary), re-exported here for convenience.
using util::kCapCorrectsErrors;
using util::kCapDetectsErrors;
using util::kCapExtendedTier;
using util::kCapPaper;
using util::kCapSideMemory;

/// The process-wide EMT registry. Built-ins ("none", "dream",
/// "ecc_secded", "dream_secded") are registered on first access, in
/// presentation order; register_factory() adds user techniques.
[[nodiscard]] util::Registry<Emt>& emt_registry();

/// Instantiates the EMT registered under `name`. Throws
/// std::invalid_argument listing the valid names on an unknown name.
[[nodiscard]] std::unique_ptr<Emt> make_emt(const std::string& name);

/// Registered names: the paper's evaluated set (Fig. 4 a, b, c order) and
/// every registered name (built-ins first, then user registrations).
[[nodiscard]] std::vector<std::string> paper_emt_names();
[[nodiscard]] std::vector<std::string> emt_names();

}  // namespace ulpdream::core
