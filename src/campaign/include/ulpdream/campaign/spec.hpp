#pragma once
// Declarative experiment grids. A CampaignSpec names the axes of one
// campaign — applications x EMTs x supply voltages x ECG records x
// Monte-Carlo repetitions — and expands into a flat, canonically-ordered
// list of WorkItems. Every item owns a mix64-derived RNG seed that depends
// only on (spec.seed, item.index), never on which shard or thread executes
// it, so a campaign's results are bit-identical for any shard split and
// any thread count. This is the generalization of the paper's Fig. 2 /
// Fig. 4 / policy grids (app x EMT x V x record x noise) into one
// first-class, resumable description.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ulpdream/apps/app.hpp"
#include "ulpdream/core/factory.hpp"
#include "ulpdream/ecg/generator.hpp"
#include "ulpdream/mem/ber_model.hpp"

namespace ulpdream::campaign {

/// One point on the record axis: a synthetic patient trace identified by
/// pathology, an overall noise scale (multiplies every NoiseParams
/// amplitude — the "noise level" axis), and a generator seed.
struct RecordAxis {
  ecg::Pathology pathology = ecg::Pathology::kNormalSinus;
  double noise_scale = 1.0;
  std::uint64_t seed = 7;

  /// Stable identifier used in exports, e.g. "normal_sinus_n1_s7".
  [[nodiscard]] std::string label() const;
};

struct CampaignSpec {
  /// Component axes are registry *names* (core::emt_registry(),
  /// apps::app_registry(), mem::ber_model_registry()), so user-registered
  /// components run through the engine exactly like the built-ins. Names
  /// resolve at execution time; unknown names throw listing the valid set.
  std::vector<std::string> apps;        ///< default: the paper's five
  std::vector<std::string> emts;        ///< default: none, dream, ecc_secded
  std::vector<double> voltages;         ///< default: 0.50..0.90 step 0.05
  std::vector<RecordAxis> records;      ///< default: one normal-sinus trace
  std::size_t repetitions = 30;         ///< Monte-Carlo fault maps per cell
  std::uint64_t seed = 2016;
  std::string ber_model = "log-linear";
  /// Record-generation front-end shared by every RecordAxis entry.
  double fs_hz = 250.0;
  double duration_s = 8.2;

  /// Copy with empty axes replaced by the defaults above and
  /// repetitions clamped to >= 1. Throws std::invalid_argument when
  /// records x voltages x repetitions overflows std::size_t or exceeds
  /// the largest item list expand() can allocate, and when fs_hz or
  /// duration_s is not a finite positive number (naming the field).
  [[nodiscard]] CampaignSpec normalized() const;

  /// Inclusive voltage range helper, e.g. voltage_range(0.5, 0.9, 0.05).
  [[nodiscard]] static std::vector<double> voltage_range(double vmin,
                                                         double vmax,
                                                         double step);

  /// Work items in the full expansion: records x voltages x repetitions.
  /// (Apps and EMTs run *inside* one item so every (app, EMT) pair sees
  /// the same fault map — the paper's Sec. V fairness protocol.)
  [[nodiscard]] std::size_t item_count() const;

  /// Aggregation cells: records x apps x emts x voltages.
  [[nodiscard]] std::size_t cell_count() const;

  /// Canonical textual identity of the grid; two stores merge only when
  /// their spec fingerprints match.
  [[nodiscard]] std::string fingerprint() const;

  /// fingerprint() minus the records section — the grid's "axes family".
  /// Records are the outermost expansion axis, so two specs in the same
  /// family where one's records are a prefix of the other's assign
  /// identical indices (and therefore identical mix64 item seeds) to the
  /// common items. That invariant is what lets the query daemon adopt a
  /// cached store as resume_from for a superset grid and run only the
  /// gap items.
  [[nodiscard]] std::string axes_fingerprint() const;

  /// FNV-1a 64-bit hash of fingerprint(), as 16 lowercase hex chars — a
  /// stable filesystem-safe key for cache-directory store names.
  [[nodiscard]] std::string fingerprint_hash() const;
};

/// The components a spec names, resolved by registry name.
struct CampaignComponents {
  std::vector<std::unique_ptr<apps::BioApp>> apps;  ///< parallel to spec.apps
  std::vector<std::unique_ptr<core::Emt>> emts;     ///< parallel to spec.emts
  std::unique_ptr<mem::BerModel> ber_model;
};

/// Resolves every app, EMT and BER-model name of a normalized spec, then
/// checks that each record (fs_hz x duration_s samples) holds every
/// app's window: the checks Session::submit makes before any item runs,
/// and the query daemon before it leases a grid to workers. Throws
/// std::invalid_argument naming the first failure.
[[nodiscard]] CampaignComponents resolve_components(const CampaignSpec& spec);

/// One schedulable unit: one Monte-Carlo fault map at one (record,
/// voltage) point, evaluated for every (app, EMT) pair of the spec.
struct WorkItem {
  std::size_t index = 0;  ///< canonical position in the full expansion
  std::size_t record_index = 0;
  std::size_t voltage_index = 0;
  std::size_t rep_index = 0;
  std::uint64_t seed = 0;  ///< mix64(spec.seed, index)
};

/// The item at canonical position `index` (< item_count()) of a
/// normalized spec: index = (record * n_voltages + voltage) * repetitions
/// + rep, seed = mix64(spec.seed, index). The one derivation behind every
/// expansion below, so a shard's or a lease's items are bit-identical to
/// the full expansion's.
[[nodiscard]] WorkItem work_item(const CampaignSpec& spec, std::size_t index);

/// Expands a normalized spec into its full canonical item list.
[[nodiscard]] std::vector<WorkItem> expand(const CampaignSpec& spec);

/// The slice of the expansion owned by shard `shard_index` of
/// `shard_count` (strided assignment: item.index % count == index).
/// Throws std::invalid_argument on an invalid shard selection.
[[nodiscard]] std::vector<WorkItem> expand_shard(const CampaignSpec& spec,
                                                 std::size_t shard_index,
                                                 std::size_t shard_count);

/// The contiguous slice [begin, end) of the expansion — the shape of a
/// distributed work lease (serve::Daemon grants ranges, not strided
/// shards). Throws std::invalid_argument when the range falls outside
/// the grid or is empty.
[[nodiscard]] std::vector<WorkItem> expand_range(const CampaignSpec& spec,
                                                 std::size_t begin,
                                                 std::size_t end);

/// Axis-list parsers for CLI drivers. Each accepts a comma-separated list
/// of registry names, or "paper" (the paper's evaluated set) or "all"
/// (every registered name, including user registrations). Throws
/// std::invalid_argument with the valid names on unknown input.
[[nodiscard]] std::vector<std::string> parse_app_list(
    const std::string& list);
[[nodiscard]] std::vector<std::string> parse_emt_list(
    const std::string& list);
[[nodiscard]] std::vector<ecg::Pathology> parse_pathology_list(
    const std::string& list);

}  // namespace ulpdream::campaign
