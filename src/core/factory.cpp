#include "ulpdream/core/factory.hpp"

#include <vector>

#include "ulpdream/core/dream.hpp"
#include "ulpdream/core/dream_secded.hpp"
#include "ulpdream/core/ecc_secded.hpp"
#include "ulpdream/core/no_protection.hpp"

namespace ulpdream::core {

util::Registry<Emt>& emt_registry() {
  static util::Registry<Emt> registry("EMT");
  static const bool built_ins = [] {
    registry.register_factory(
        "none", [] { return std::make_unique<NoProtection>(); },
        {"No protection",
         "raw 16-bit samples in the scaled memory (paper baseline)",
         {kCapPaper}});
    registry.register_factory(
        "dream", [] { return std::make_unique<Dream>(); },
        {"DREAM",
         "sign + run-length mask in error-free side memory, forces MSBs",
         {kCapPaper, kCapCorrectsErrors, kCapSideMemory}});
    registry.register_factory(
        "ecc_secded", [] { return std::make_unique<EccSecDed>(); },
        {"ECC SEC/DED",
         "extended Hamming(22,16): corrects 1, detects 2 errors per word",
         {kCapPaper, kCapCorrectsErrors, kCapDetectsErrors}});
    registry.register_factory(
        "dream_secded", [] { return std::make_unique<DreamSecDed>(); },
        {"DREAM + SEC/DED",
         "hybrid multi-error EMT for < 0.55 V operation (extension)",
         {kCapExtendedTier, kCapCorrectsErrors, kCapDetectsErrors,
          kCapSideMemory}});
    return true;
  }();
  (void)built_ins;
  return registry;
}

std::unique_ptr<Emt> make_emt(const std::string& name) {
  return emt_registry().create(name);
}

std::vector<std::string> paper_emt_names() {
  return emt_registry().names_with(kCapPaper);
}

std::vector<std::string> emt_names() { return emt_registry().names(); }

}  // namespace ulpdream::core
