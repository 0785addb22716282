#include "ulpdream/apps/app.hpp"

#include <span>
#include <stdexcept>

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
        {"multi-level db4 wavelet transform of the ECG window",
         {kCapPaper}});
    registry.register_factory(
        "matrix_filter", [] { return std::make_unique<MatrixFilterApp>(); },
        {"band-pass FIR as dense matrix-vector products",
         {kCapPaper}});
    registry.register_factory(
        "cs", [] { return std::make_unique<CsApp>(); },
        {"sparse binary sensing + OMP reconstruction (lossy transmit path)",
         {kCapPaper}});
    registry.register_factory(
        "morph_filter", [] { return std::make_unique<MorphFilterApp>(); },
        {"open/close baseline removal on the raw trace",
         {kCapPaper}});
    registry.register_factory(
        "delineation", [] { return std::make_unique<DelineationApp>(); },
        {"P/Q/R/S/T fiducial detection on the SWT envelope",
         {kCapPaper}});
    registry.register_factory(
        "heartbeat_classifier", [] { return std::make_unique<ClassifierApp>(); },
        {"delineation + rule-based early classification (extension)",
         {kCapExtendedTier}});
    return true;
  }();
  (void)built_ins;
  return registry;
}

void require_window(const BioApp& app, const std::string& record_name,
                    std::size_t samples) {
  if (samples < app.input_length()) {
    throw std::invalid_argument(
        app.name() + ": record " + record_name + " holds " +
        std::to_string(samples) + " samples, shorter than its " +
        std::to_string(app.input_length()) + "-sample window");
  }
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
