// Extending ulpdream from *outside* src/: define a new error-mitigation
// technique, register it under a name, and run it through the campaign
// engine next to the built-ins — no enum edited, no switch touched, no
// library source modified. This is the extension contract the registry
// redesign exists for, and CI runs it as a smoke test.
//
// The technique ("tmr_msb") is deliberately simple: triplicate the two
// sign-run MSBs into a 20-bit payload and majority-vote them on decode —
// a poor man's DREAM that needs no side memory. The point is not the
// codec; it is that a 60-line user type participates in Scenario grids,
// aggregation and the determinism guarantees exactly like "dream" does.
//
// Usage: custom_emt [--reps 4] [--threads 4]

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>

#include <ulpdream/ulpdream.hpp>

#include "ulpdream/util/cli.hpp"
#include "ulpdream/util/table.hpp"

namespace {

/// Triple-Modular-Redundancy on the two MSBs of each 16-bit sample.
/// Payload layout: bits 0..15 = the raw sample; bits 16/17 = copies of
/// bit 15; bits 18/19 = copies of bit 14.
class TmrMsb final : public ulpdream::core::Emt {
 public:
  [[nodiscard]] std::string name() const override { return "tmr_msb"; }
  [[nodiscard]] int payload_bits() const override { return 20; }
  [[nodiscard]] int safe_bits() const override { return 0; }

  [[nodiscard]] std::uint32_t encode_payload(
      ulpdream::fixed::Sample s) const override {
    const auto u = static_cast<std::uint16_t>(s);
    const std::uint32_t b15 = (u >> 15) & 1u;
    const std::uint32_t b14 = (u >> 14) & 1u;
    return u | (b15 << 16) | (b15 << 17) | (b14 << 18) | (b14 << 19);
  }
  [[nodiscard]] std::uint16_t encode_safe(
      ulpdream::fixed::Sample) const override {
    return 0;
  }
  [[nodiscard]] ulpdream::fixed::Sample decode(
      std::uint32_t payload, std::uint16_t,
      ulpdream::core::CodecCounters* counters = nullptr) const override {
    const auto raw = static_cast<std::uint16_t>(payload & 0xFFFFu);
    const auto majority = [payload](int data_bit, int c1, int c2) {
      const std::uint32_t votes = ((payload >> data_bit) & 1u) +
                                  ((payload >> c1) & 1u) +
                                  ((payload >> c2) & 1u);
      return votes >= 2 ? 1u : 0u;
    };
    std::uint16_t data = raw;
    data = static_cast<std::uint16_t>(
        (data & 0x7FFFu) | (majority(15, 16, 17) << 15));
    data = static_cast<std::uint16_t>(
        (data & 0xBFFFu) | (majority(14, 18, 19) << 14));
    if (counters != nullptr) {
      ++counters->decodes;
      if (data != raw) ++counters->corrected_words;
    }
    return static_cast<ulpdream::fixed::Sample>(data);
  }

  [[nodiscard]] double encode_energy_pj() const override { return 0.10; }
  [[nodiscard]] double decode_energy_pj() const override { return 0.20; }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace ulpdream;
  const util::Cli cli(argc, argv);
  const auto reps = static_cast<std::size_t>(cli.get_int("reps", 4));
  const auto threads =
      static_cast<unsigned>(std::max<std::int64_t>(0, cli.get_int("threads", 4)));

  // 1. Register the technique — one call, from application code.
  core::emt_registry().register_factory(
      "tmr_msb", [] { return std::make_unique<TmrMsb>(); },
      {"triplicates the two sign-run MSBs, majority-votes on decode",
       {core::kCapCorrectsErrors, "custom"}});

  // The registries now enumerate it like any built-in — this is what a
  // CLI's --list or a campaign spec validator sees.
  std::cout << "Registered EMTs:\n";
  for (const std::string& name : core::emt_names()) {
    const Descriptor d = core::emt_registry().descriptor(name);
    std::printf("  %-14s %s\n", name.c_str(), d.doc.c_str());
  }
  std::cout << '\n';

  // 2. Run it through a campaign grid, by name, next to the built-ins.
  const auto scenario = [&](unsigned n_threads) {
    return Scenario()
        .app("dwt")
        .emt("none")
        .emt("dream")
        .emt("tmr_msb")
        .voltage(0.6)
        .voltage(0.8)
        .record(ecg::Pathology::kNormalSinus, 1.0, 7)
        .repetitions(reps)
        .threads(n_threads);
  };
  const std::vector<AggregateRow> rows = scenario(threads).run_rows();
  campaign::rows_to_table(rows, "Custom EMT vs built-ins (DWT)")
      .print(std::cout);

  // 3. The engine's guarantees hold for user components too: aggregates
  // are bit-identical for any thread count.
  const std::vector<AggregateRow> serial_rows = scenario(1).run_rows();
  bool deterministic = rows.size() == serial_rows.size();
  for (std::size_t i = 0; deterministic && i < rows.size(); ++i) {
    deterministic = rows[i].emt == serial_rows[i].emt &&
                    rows[i].snr_mean_db == serial_rows[i].snr_mean_db &&
                    rows[i].energy_mean_j == serial_rows[i].energy_mean_j &&
                    rows[i].corrected_mean == serial_rows[i].corrected_mean;
  }

  // 4. Sanity: the custom technique actually corrected words at 0.6 V.
  double tmr_corrected = 0.0;
  for (const AggregateRow& r : rows) {
    if (r.emt == "tmr_msb" && r.voltage == 0.6) tmr_corrected = r.corrected_mean;
  }

  std::cout << "\nchecks:\n";
  std::cout << "  bit-identical across thread counts: "
            << (deterministic ? "PASS" : "FAIL") << '\n';
  std::cout << "  custom EMT corrected words at 0.6 V: "
            << (tmr_corrected > 0.0 ? "PASS" : "FAIL") << '\n';
  return deterministic && tmr_corrected > 0.0 ? 0 : 1;
}
