#include "ulpdream/apps/app.hpp"

#include <span>

#include "ulpdream/apps/classifier_app.hpp"
#include "ulpdream/apps/cs_app.hpp"
#include "ulpdream/apps/delineation_app.hpp"
#include "ulpdream/apps/dwt_app.hpp"
#include "ulpdream/apps/matrix_filter_app.hpp"
#include "ulpdream/apps/morph_filter_app.hpp"
#include "ulpdream/core/factory.hpp"

namespace ulpdream::apps {

util::Registry<BioApp>& app_registry() {
  static util::Registry<BioApp> registry("app");
  static const bool built_ins = [] {
    using core::kCapExtendedTier;
    using core::kCapPaper;
    registry.register_factory(
        "dwt", [] { return std::make_unique<DwtApp>(); },
        {"DWT compression",
         "multi-level db4 wavelet transform of the ECG window",
         {kCapPaper}});
    registry.register_factory(
        "matrix_filter", [] { return std::make_unique<MatrixFilterApp>(); },
        {"Matrix FIR filter",
         "band-pass FIR as dense matrix-vector products",
         {kCapPaper}});
    registry.register_factory(
        "cs", [] { return std::make_unique<CsApp>(); },
        {"Compressed sensing",
         "Bernoulli sensing + OMP reconstruction (lossy transmit path)",
         {kCapPaper}});
    registry.register_factory(
        "morph_filter", [] { return std::make_unique<MorphFilterApp>(); },
        {"Morphological filter",
         "open/close baseline removal on the raw trace",
         {kCapPaper}});
    registry.register_factory(
        "delineation", [] { return std::make_unique<DelineationApp>(); },
        {"Wavelet delineation",
         "P/Q/R/S/T fiducial detection on the SWT envelope",
         {kCapPaper}});
    registry.register_factory(
        "heartbeat_classifier", [] { return std::make_unique<ClassifierApp>(); },
        {"Heartbeat classifier",
         "delineation + rule-based early classification (extension)",
         {kCapExtendedTier}});
    return true;
  }();
  (void)built_ins;
  return registry;
}

std::unique_ptr<BioApp> make_app(const std::string& name) {
  return app_registry().create(name);
}

std::vector<std::string> paper_app_names() {
  return app_registry().names_with(core::kCapPaper);
}

std::vector<std::string> app_names() { return app_registry().names(); }

void load_input(core::ProtectedBuffer& buf, const fixed::SampleVec& samples,
                std::size_t n) {
  buf.load(0, std::span<const fixed::Sample>(samples.data(), n));
}

std::vector<double> read_output_f64(const core::ProtectedBuffer& buf,
                                    std::size_t n) {
  fixed::SampleVec raw(n);
  buf.store(0, std::span<fixed::Sample>(raw.data(), n));
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<double>(raw[i]);
  return out;
}

}  // namespace ulpdream::apps
