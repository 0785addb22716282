#include "ulpdream/campaign/spec.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ulpdream/util/cli.hpp"
#include "ulpdream/util/rng.hpp"
#include "ulpdream/util/table.hpp"

namespace ulpdream::campaign {

namespace {

constexpr ecg::Pathology kAllPathologies[] = {
    ecg::Pathology::kNormalSinus, ecg::Pathology::kBradycardia,
    ecg::Pathology::kTachycardia, ecg::Pathology::kPvcBigeminy,
    ecg::Pathology::kAtrialFib,   ecg::Pathology::kStElevation};

/// Shared lookup for the name-list axis parsers: resolves each element of
/// the comma list against `universe` via `name_of`, throwing with the
/// valid names on unknown input.
template <typename Kind, typename Universe, typename NameFn>
std::vector<Kind> parse_kind_list(const std::string& list,
                                  const Universe& universe, NameFn name_of,
                                  const char* what) {
  std::vector<Kind> out;
  for (const std::string& name : util::split_list(list)) {
    bool found = false;
    for (Kind kind : universe) {
      if (name == name_of(kind)) {
        out.push_back(kind);
        found = true;
        break;
      }
    }
    if (!found) {
      std::string msg = std::string("unknown ") + what + ": " + name +
                        " (valid:";
      for (Kind kind : universe) msg += std::string(" ") + name_of(kind);
      msg += ", or paper/all)";
      throw std::invalid_argument(msg);
    }
  }
  if (out.empty()) {
    throw std::invalid_argument(std::string("empty ") + what + " list");
  }
  return out;
}

/// Registry-backed axis parser: validates every element of the comma list
/// against the registry (whose unknown-name error lists the valid names,
/// extended with the paper/all shorthands).
template <typename T>
std::vector<std::string> parse_name_list(const std::string& list,
                                         const util::Registry<T>& registry) {
  std::vector<std::string> out;
  for (const std::string& name : util::split_list(list)) {
    if (!registry.contains(name)) {
      throw std::invalid_argument("unknown " + registry.noun() + ": " + name +
                                  " (valid: " + registry.valid_names() +
                                  ", or paper/all)");
    }
    out.push_back(name);
  }
  if (out.empty()) {
    throw std::invalid_argument("empty " + registry.noun() + " list");
  }
  return out;
}

/// The one body of fingerprint() and axes_fingerprint(), which differ
/// only in the records section.
std::string fingerprint_text(const CampaignSpec& s, bool with_records) {
  std::ostringstream os;
  os << "apps:";
  for (const auto& a : s.apps) os << ' ' << a;
  os << "|emts:";
  for (const auto& e : s.emts) os << ' ' << e;
  os << "|voltages:";
  for (double v : s.voltages) os << ' ' << util::fmt_exact(v);
  if (with_records) {
    os << "|records:";
    for (const auto& r : s.records) os << ' ' << r.label();
  }
  os << "|reps:" << s.repetitions << "|seed:" << s.seed
     << "|ber:" << s.ber_model << "|fs:" << util::fmt_exact(s.fs_hz)
     << "|dur:" << util::fmt_exact(s.duration_s);
  return os.str();
}

/// Throws unless `value` is finite, naming it as `what`.
void require_finite(const std::string& what, double value) {
  if (!std::isfinite(value)) {
    throw std::invalid_argument(what + " = " + util::fmt_exact(value) +
                                " is not finite");
  }
}

/// Throws naming the axis and the value when `values` repeats one: a
/// grid row is keyed by its axis values, so a repeat gives two rows
/// one key.
void require_distinct(std::vector<std::string> values, const char* axis) {
  std::sort(values.begin(), values.end());
  const auto twin = std::adjacent_find(values.begin(), values.end());
  if (twin != values.end()) {
    throw std::invalid_argument(std::string("CampaignSpec: ") + axis + " '" +
                                *twin + "' is repeated");
  }
}

}  // namespace

std::string RecordAxis::label() const {
  return std::string(ecg::pathology_name(pathology)) + "_n" +
         util::fmt_exact(noise_scale) + "_s" + std::to_string(seed);
}

CampaignSpec CampaignSpec::normalized() const {
  CampaignSpec out = *this;
  if (out.apps.empty()) out.apps = apps::paper_app_names();
  if (out.emts.empty()) out.emts = core::paper_emt_names();
  if (out.voltages.empty()) {
    out.voltages = voltage_range(mem::VoltageWindow::kMin,
                                 mem::VoltageWindow::kNominal,
                                 mem::VoltageWindow::kStep);
  }
  if (out.records.empty()) out.records.push_back(RecordAxis{});
  if (out.repetitions == 0) out.repetitions = 1;
  // Record generation sizes each record as fs_hz x duration_s samples;
  // a NaN, infinite or non-positive factor gives no record to run on.
  for (const auto& [field, value] : {std::pair{"fs_hz", out.fs_hz},
                                     std::pair{"duration_s", out.duration_s}}) {
    if (!(std::isfinite(value) && value > 0.0)) {
      std::ostringstream os;
      os << "CampaignSpec: " << field << " = " << value
         << " is not a finite positive number";
      throw std::invalid_argument(os.str());
    }
  }
  // A non-finite voltage has no BER to draw faults from, and a
  // non-finite noise scale no trace.
  for (const double v : out.voltages) {
    require_finite("CampaignSpec: voltage", v);
  }
  for (const RecordAxis& r : out.records) {
    require_finite("CampaignSpec: noise_scale of record " + r.label(),
                   r.noise_scale);
  }
  require_distinct(out.apps, "app");
  require_distinct(out.emts, "emt");
  std::vector<std::string> labels;
  labels.reserve(out.records.size());
  for (const RecordAxis& r : out.records) labels.push_back(r.label());
  require_distinct(std::move(labels), "record");
  std::vector<double> sorted = out.voltages;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i] - sorted[i - 1] < kVoltageResolution) {
      throw std::invalid_argument(
          "CampaignSpec: voltage '" + util::fmt_exact(sorted[i - 1]) +
          "' is repeated" +
          (sorted[i] == sorted[i - 1]
               ? std::string()
               : " (as " + util::fmt_exact(sorted[i]) + ", closer than " +
                     util::fmt_exact(kVoltageResolution) + " V)"));
    }
  }
  // A grid expand() cannot hold would surface only as bad_alloc or an
  // endless loop deep inside a run, so reject it here: the benches, the
  // CLI, the daemon and the workers all normalize first. A negative
  // --reps arrives as 2^64 - 1.
  const std::size_t max_items = std::vector<WorkItem>().max_size();
  const std::size_t n_r = out.records.size();
  const std::size_t n_v = out.voltages.size();
  if (n_v > max_items / n_r || out.repetitions > max_items / (n_r * n_v)) {
    throw std::invalid_argument(
        "CampaignSpec: records x voltages x repetitions = " +
        std::to_string(n_r) + " x " + std::to_string(n_v) + " x " +
        std::to_string(out.repetitions) +
        " is more work items than a grid can hold (at most " +
        std::to_string(max_items) + ")");
  }
  return out;
}

std::vector<double> CampaignSpec::voltage_range(double vmin, double vmax,
                                                double step) {
  require_finite("voltage_range: vmin", vmin);
  require_finite("voltage_range: vmax", vmax);
  require_finite("voltage_range: step", step);
  if (step <= 0.0 || vmax < vmin) {
    throw std::invalid_argument("voltage_range: need step > 0, vmax >= vmin");
  }
  // Finite bounds can still ask for more points than a size_t counts
  // ((vmax - vmin) / step overflows to infinity), and casting that is
  // undefined.
  const double steps = (vmax - vmin) / step + 1e-9;
  if (!(steps < static_cast<double>(std::vector<double>().max_size()))) {
    throw std::invalid_argument(
        "voltage_range: (vmax - vmin) / step = " + util::fmt_exact(steps) +
        " grid points is more than a grid can hold");
  }
  const auto count = static_cast<std::size_t>(steps) + 1;
  std::vector<double> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    // Snap each grid point to 1e-6 V so the axis carries no accumulated
    // float drift (0.8, not 0.7999999999999999) — the exported exact
    // values are the grid the user asked for.
    out.push_back(std::round((vmin + static_cast<double>(i) * step) * 1e6) /
                  1e6);
  }
  return out;
}

CampaignComponents resolve_components(const CampaignSpec& spec) {
  CampaignComponents out;
  out.apps.reserve(spec.apps.size());
  for (const std::string& name : spec.apps) {
    out.apps.push_back(apps::make_app(name));
  }
  out.emts.reserve(spec.emts.size());
  for (const std::string& name : spec.emts) {
    out.emts.push_back(core::make_emt(name));
  }
  out.ber_model = mem::make_ber_model(spec.ber_model);
  // The length ecg::generate_record gives every record of the spec.
  const auto samples = static_cast<std::size_t>(spec.duration_s * spec.fs_hz);
  for (const RecordAxis& axis : spec.records) {
    for (const auto& app : out.apps) {
      apps::require_window(*app, axis.label(), samples);
    }
  }
  return out;
}

std::size_t CampaignSpec::item_count() const {
  return records.size() * voltages.size() * repetitions;
}

std::size_t CampaignSpec::cell_count() const {
  return records.size() * apps.size() * emts.size() * voltages.size();
}

std::string CampaignSpec::fingerprint() const {
  return fingerprint_text(*this, /*with_records=*/true);
}

std::string CampaignSpec::axes_fingerprint() const {
  return fingerprint_text(*this, /*with_records=*/false);
}

std::string CampaignSpec::fingerprint_hash() const {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64 offset basis
  for (const unsigned char c : fingerprint()) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(h));
  return text;
}

WorkItem work_item(const CampaignSpec& spec, std::size_t index) {
  const std::size_t cell = index / spec.repetitions;
  return WorkItem{index, cell / spec.voltages.size(),
                  cell % spec.voltages.size(), index % spec.repetitions,
                  util::mix64(spec.seed, index)};
}

std::vector<WorkItem> expand(const CampaignSpec& spec) {
  return expand_shard(spec, 0, 1);
}

std::vector<WorkItem> expand_shard(const CampaignSpec& spec,
                                   std::size_t shard_index,
                                   std::size_t shard_count) {
  if (shard_count == 0 || shard_index >= shard_count) {
    throw std::invalid_argument("expand_shard: need shard_index < shard_count");
  }
  // Only this shard's items are derived: indices shard_index,
  // shard_index + shard_count, ... below item_count().
  const std::size_t total = spec.item_count();
  const std::size_t n =
      shard_index < total ? (total - 1 - shard_index) / shard_count + 1 : 0;
  std::vector<WorkItem> items;
  items.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    items.push_back(work_item(spec, shard_index + k * shard_count));
  }
  return items;
}

std::vector<WorkItem> expand_range(const CampaignSpec& spec,
                                   std::size_t begin, std::size_t end) {
  if (begin >= end || end > spec.item_count()) {
    throw std::invalid_argument(
        "expand_range: need begin < end <= item_count() (got [" +
        std::to_string(begin) + ", " + std::to_string(end) + ") of " +
        std::to_string(spec.item_count()) + " items)");
  }
  std::vector<WorkItem> items;
  items.reserve(end - begin);
  for (std::size_t index = begin; index < end; ++index) {
    items.push_back(work_item(spec, index));
  }
  return items;
}

std::vector<std::string> parse_app_list(const std::string& list) {
  if (list == "paper") return apps::paper_app_names();
  if (list == "all") return apps::app_names();
  return parse_name_list(list, apps::app_registry());
}

std::vector<std::string> parse_emt_list(const std::string& list) {
  if (list == "paper") return core::paper_emt_names();
  if (list == "all") return core::emt_names();
  return parse_name_list(list, core::emt_registry());
}

std::vector<ecg::Pathology> parse_pathology_list(const std::string& list) {
  if (list == "paper" || list == "all") {
    return std::vector<ecg::Pathology>(std::begin(kAllPathologies),
                                       std::end(kAllPathologies));
  }
  return parse_kind_list<ecg::Pathology>(list, kAllPathologies,
                                         ecg::pathology_name, "pathology");
}

}  // namespace ulpdream::campaign
