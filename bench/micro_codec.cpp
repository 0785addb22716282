// Engineering microbenchmarks (not paper artifacts), two modes:
//
//  - default: google-benchmark throughput of the EMT codecs, the
//    faulty-memory access path and the main DSP kernels (built only when
//    the library is available; used to size experiment runtimes);
//  - --datapath: self-timed scalar-vs-block data-path comparison on the
//    paper's 32 kB geometry — full-buffer write+read sweeps through
//    ProtectedBuffer, word-at-a-time vs the span-based block API, for
//    every EMT at a chosen supply voltage, each with the address
//    scrambler on and off (the campaigns run unscrambled). Verifies the
//    two paths are bit-identical (decoded words, CodecCounters,
//    AccessStats) to each other and to a shadow-free word-at-a-time
//    oracle, and emits machine-readable JSON (stdout, or --json FILE with
//    a human summary on stdout). CI runs this as the perf-trajectory
//    smoke step, at 0.8 V and at 0.55 V.
//
//    Example: micro_codec --datapath --volt 0.55 --json BENCH_datapath.json

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "ulpdream/core/dream.hpp"
#include "ulpdream/core/ecc_secded.hpp"
#include "ulpdream/core/factory.hpp"
#include "ulpdream/core/no_protection.hpp"
#include "ulpdream/core/protected_buffer.hpp"
#include "ulpdream/ecg/database.hpp"
#include "ulpdream/mem/ber_model.hpp"
#include "ulpdream/mem/fault_map.hpp"
#include "ulpdream/util/bench.hpp"
#include "ulpdream/util/cli.hpp"
#include "ulpdream/util/rng.hpp"
#include "ulpdream/util/simd.hpp"
#include "ulpdream/util/telemetry.hpp"

#ifdef ULPDREAM_HAVE_GBENCH
#include <benchmark/benchmark.h>

#include "ulpdream/cs/omp.hpp"
#include "ulpdream/cs/reconstruct.hpp"
#include "ulpdream/cs/sensing_matrix.hpp"
#include "ulpdream/signal/morphology.hpp"
#include "ulpdream/signal/wavelet.hpp"
#endif

using namespace ulpdream;

namespace {

// ---------------------------------------------------------------------------
// --datapath mode.

constexpr std::uint64_t kScramblerSeed = 0xDA7A9A7Bu;

struct DatapathRow {
  std::string emt;
  bool scrambled = false;
  double scalar_maccess_s = 0.0;
  double block_maccess_s = 0.0;
  double speedup = 0.0;
  bool identical = false;
  std::uint64_t scalar_checksum = 0;  ///< per-pass decoded-output sum
  std::uint64_t block_checksum = 0;   ///< must equal scalar_checksum
};

/// One full write+read sweep of `src` through `buf`, word at a time.
std::uint64_t scalar_pass(core::ProtectedBuffer& buf,
                          const fixed::SampleVec& src) {
  for (std::size_t i = 0; i < src.size(); ++i) buf.set(i, src[i]);
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < src.size(); ++i) {
    sum += static_cast<std::uint16_t>(buf.get(i));
  }
  return sum;
}

/// The same sweep on the block path.
std::uint64_t block_pass(core::ProtectedBuffer& buf,
                         const fixed::SampleVec& src, fixed::SampleVec& dst) {
  buf.load(0, std::span<const fixed::Sample>(src.data(), src.size()));
  buf.store(0, std::span<fixed::Sample>(dst.data(), dst.size()));
  std::uint64_t sum = 0;
  for (const fixed::Sample s : dst) sum += static_cast<std::uint16_t>(s);
  return sum;
}

bool stats_equal(const mem::AccessStats& a, const mem::AccessStats& b) {
  return a.reads == b.reads && a.writes == b.writes;
}

bool counters_equal(const core::CodecCounters& a,
                    const core::CodecCounters& b) {
  return a.decodes == b.decodes && a.corrected_words == b.corrected_words &&
         a.detected_uncorrectable == b.detected_uncorrectable;
}

/// Bit-identity check: scalar and block sweeps over identical systems must
/// produce the same decoded words, codec counters and access stats — and
/// so must a third witness with no decoded shadow anywhere: the same
/// writes into a bare data/side memory pair, read back word by word with
/// FaultyMemory::read + SafeMemory::read + Emt::decode. Both MemorySystem
/// sweeps read the shadow, so without the third they would only compare
/// the shadow with itself. `scrambler` is the address scrambler's seed
/// (0: unscrambled) on all three.
bool paths_identical(const core::Emt& emt, const mem::FaultMap& map,
                     const fixed::SampleVec& src, std::uint64_t scrambler) {
  fixed::SampleVec scalar_out(src.size());
  fixed::SampleVec block_out(src.size());
  fixed::SampleVec oracle_out(src.size());
  core::CodecCounters scalar_counters;
  core::CodecCounters block_counters;
  core::CodecCounters oracle_counters;
  mem::AccessStats scalar_data;
  mem::AccessStats block_data;
  mem::AccessStats oracle_data;
  mem::AccessStats scalar_side;
  mem::AccessStats block_side;
  mem::AccessStats oracle_side;

  {
    core::MemorySystem system(emt, src.size());
    system.attach_faults(&map);
    system.set_scrambler(scrambler);
    auto buf = core::ProtectedBuffer::allocate(system, src.size());
    for (std::size_t i = 0; i < src.size(); ++i) buf.set(i, src[i]);
    for (std::size_t i = 0; i < src.size(); ++i) scalar_out[i] = buf.get(i);
    scalar_counters = system.counters();
    scalar_data = system.data().stats();
    if (const auto* side = system.safe()) scalar_side = side->stats();
  }
  {
    core::MemorySystem system(emt, src.size());
    system.attach_faults(&map);
    system.set_scrambler(scrambler);
    auto buf = core::ProtectedBuffer::allocate(system, src.size());
    buf.load(0, std::span<const fixed::Sample>(src.data(), src.size()));
    buf.store(0, std::span<fixed::Sample>(block_out.data(), block_out.size()));
    block_counters = system.counters();
    block_data = system.data().stats();
    if (const auto* side = system.safe()) block_side = side->stats();
  }
  {
    mem::FaultyMemory data(src.size(), emt.payload_bits());
    std::optional<mem::SafeMemory> side;
    if (emt.safe_bits() > 0) side.emplace(src.size(), emt.safe_bits());
    data.attach_faults(&map);
    data.set_scrambler(scrambler);
    for (std::size_t i = 0; i < src.size(); ++i) {
      data.write(i, emt.encode_payload(src[i]));
      if (side) side->write(i, emt.encode_safe(src[i]));
    }
    for (std::size_t i = 0; i < src.size(); ++i) {
      oracle_out[i] = emt.decode(data.read(i), side ? side->read(i) : 0,
                                 &oracle_counters);
    }
    oracle_data = data.stats();
    if (side) oracle_side = side->stats();
  }
  return scalar_out == block_out && block_out == oracle_out &&
         counters_equal(scalar_counters, block_counters) &&
         counters_equal(block_counters, oracle_counters) &&
         stats_equal(scalar_data, block_data) &&
         stats_equal(block_data, oracle_data) &&
         stats_equal(scalar_side, block_side) &&
         stats_equal(block_side, oracle_side);
}

/// Median-free simple timing: repeats passes until `min_seconds` of work
/// is accumulated and reports accesses (reads + writes) per second.
/// `checksum` receives the (deterministic) per-pass output sum, and every
/// timed pass's result goes through an optimization barrier so no part of
/// the sweep can be dead-code-eliminated.
template <typename Pass>
double time_pass(Pass&& pass, std::size_t words, double min_seconds,
                 std::uint64_t& checksum) {
  using Clock = std::chrono::steady_clock;
  // Warm-up pass (touches every page, fills caches) — its sum is the
  // checksum the JSON reports; every timed pass must reproduce it.
  checksum = pass();
  std::uint64_t mismatches = 0;
  std::uint64_t reps = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  do {
    const std::uint64_t sum = pass();
    util::do_not_optimize(sum);
    mismatches += (sum != checksum);
    ++reps;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds);
  if (mismatches != 0) {
    std::fprintf(stderr, "datapath: %llu non-deterministic passes\n",
                 static_cast<unsigned long long>(mismatches));
    checksum = 0;  // poison: the JSON consumer sees the divergence
  }
  const double accesses =
      static_cast<double>(reps) * 2.0 * static_cast<double>(words);
  return accesses / elapsed;
}

/// The benchmark's own telemetry, embedded so BENCH_datapath.json is
/// self-describing: per-EMT block-call latency histograms (recorded by
/// the instrumented MemorySystem under hot_timing) plus the SIMD tier.
void write_telemetry_block(std::ostream& os,
                           const util::telemetry::MetricsSnapshot& m) {
  os << "  \"telemetry\": {\n";
  os << "    \"simd_tier\": \""
     << util::simd::tier_name(util::simd::active_tier()) << "\",\n";
  os << "    \"codec_block_ns\": {";
  bool first = true;
  for (const auto& [name, h] : m.histograms) {
    // codec.<emt>.{encode,decode}_block_ns — sorted map, stable order.
    if (name.rfind("codec.", 0) != 0 || h.count() == 0) continue;
    os << (first ? "\n" : ",\n") << "      \"" << name
       << "\": {\"count\": " << h.count() << ", \"mean\": " << h.mean()
       << ", \"p50\": " << h.quantile(0.5) << ", \"p95\": " << h.quantile(0.95)
       << ", \"p99\": " << h.quantile(0.99) << "}";
    first = false;
  }
  os << (first ? "" : "\n    ") << "}\n  },\n";
}

void write_json(std::ostream& os, double volt, double ber, std::size_t words,
                const std::vector<DatapathRow>& rows) {
  os << "{\n";
  os << "  \"benchmark\": \"datapath\",\n";
  os << "  \"geometry\": {\"words\": " << words
     << ", \"bytes\": " << mem::MemoryGeometry::kBytes << "},\n";
  os << "  \"voltage_v\": " << volt << ",\n";
  os << "  \"ber\": " << ber << ",\n";
  os << "  \"accesses_per_pass\": " << 2 * words << ",\n";
  os << "  \"simd_tier\": \""
     << util::simd::tier_name(util::simd::active_tier()) << "\",\n";
  write_telemetry_block(os, util::telemetry::snapshot());
  os << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const DatapathRow& r = rows[i];
    os << "    {\"emt\": \"" << r.emt << "\", \"scrambled\": "
       << (r.scrambled ? "true" : "false") << ", \"scalar_maccess_s\": "
       << r.scalar_maccess_s << ", \"block_maccess_s\": " << r.block_maccess_s
       << ", \"speedup\": " << r.speedup
       << ", \"identical\": " << (r.identical ? "true" : "false")
       << ", \"scalar_checksum\": " << r.scalar_checksum
       << ", \"block_checksum\": " << r.block_checksum << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
}

/// One JSON row: `emt`'s scalar and block sweeps over `src`, with the
/// address scrambler seeded by `scrambler` (0: unscrambled), timed and
/// identity-checked.
DatapathRow time_datapath(const core::Emt& emt, const mem::FaultMap& map,
                          const fixed::SampleVec& src, std::uint64_t scrambler,
                          double min_seconds) {
  const std::size_t words = src.size();
  DatapathRow row;
  row.emt = emt.name();
  row.scrambled = scrambler != 0;
  row.identical = paths_identical(emt, map, src, scrambler);

  core::MemorySystem system(emt, words);
  system.attach_faults(&map);
  system.set_scrambler(scrambler);
  auto buf = core::ProtectedBuffer::allocate(system, words);
  fixed::SampleVec dst(words);

  row.scalar_maccess_s =
      time_pass([&] { return scalar_pass(buf, src); }, words, min_seconds,
                row.scalar_checksum) /
      1e6;
  row.block_maccess_s =
      time_pass([&] { return block_pass(buf, src, dst); }, words, min_seconds,
                row.block_checksum) /
      1e6;
  row.speedup = row.block_maccess_s / row.scalar_maccess_s;
  // Both sweeps decode the same stored data, so the checksums must
  // agree — a cheap second witness alongside paths_identical().
  row.identical = row.identical && row.scalar_checksum == row.block_checksum;

  std::fprintf(stderr,
               "datapath %-12s %-11s scalar %8.2f Macc/s  block %8.2f "
               "Macc/s  speedup %.2fx  identical=%s  checksum=%llu\n",
               row.emt.c_str(), row.scrambled ? "scrambled" : "unscrambled",
               row.scalar_maccess_s, row.block_maccess_s, row.speedup,
               row.identical ? "yes" : "NO",
               static_cast<unsigned long long>(row.block_checksum));
  return row;
}

int run_datapath(const util::Cli& cli) {
  // The bench is a telemetry scraper: turn the gated block-latency
  // histograms on and start from zero so the embedded JSON block
  // describes exactly this run.
  util::telemetry::set_hot_timing(true);
  util::telemetry::reset_metrics();
  const double volt = cli.get_double("volt", 0.8);
  const double min_seconds = cli.get_double("min-time", 0.15);
  const std::size_t words = static_cast<std::size_t>(
      cli.get_int("words", static_cast<std::int64_t>(
                               mem::MemoryGeometry::kWords16)));
  const double ber = mem::LogLinearBerModel().ber(volt);

  // Realistic sample distribution (DREAM's run lengths depend on it):
  // a synthetic ECG trace tiled over the full array.
  const ecg::Record record = ecg::make_default_record(1);
  fixed::SampleVec src(words);
  for (std::size_t i = 0; i < words; ++i) {
    src[i] = record.samples[i % record.samples.size()];
  }

  // One fault map at the widest payload, shared by every EMT — the same
  // fairness protocol the experiments use.
  util::Xoshiro256 rng(2016);
  const mem::FaultMap map = mem::FaultMap::random(
      words, core::EccSecDed::kPayloadBits, ber, rng);

  // Each EMT on both layouts: scrambled, and unscrambled as a campaign
  // runs it, whose block read patches a window from the map's entries.
  std::vector<DatapathRow> rows;
  bool all_identical = true;
  for (const std::string& name : core::emt_names()) {
    for (const std::uint64_t scrambler : {kScramblerSeed, std::uint64_t{0}}) {
      rows.push_back(time_datapath(*core::make_emt(name), map, src, scrambler,
                                   min_seconds));
      all_identical = all_identical && rows.back().identical;
    }
  }

  const std::string json_path = cli.get("json", "");
  if (json_path.empty()) {
    write_json(std::cout, volt, ber, words, rows);
  } else {
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s\n", json_path.c_str());
      return 1;
    }
    write_json(os, volt, ber, words, rows);
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!all_identical) {
    std::fprintf(stderr, "FAIL: block path diverged from scalar path\n");
    return 1;
  }
  return 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// google-benchmark microbenchmarks (default mode).

#ifdef ULPDREAM_HAVE_GBENCH
namespace {

void BM_DreamEncode(benchmark::State& state) {
  const core::Dream dream;
  fixed::Sample s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dream.encode_safe(s));
    s = static_cast<fixed::Sample>(s + 7);
  }
}
BENCHMARK(BM_DreamEncode);

void BM_DreamDecode(benchmark::State& state) {
  const core::Dream dream;
  fixed::Sample s = 0;
  for (auto _ : state) {
    const std::uint16_t safe = dream.encode_safe(s);
    benchmark::DoNotOptimize(dream.decode(dream.encode_payload(s) ^ 0x8000u,
                                          safe));
    s = static_cast<fixed::Sample>(s + 7);
  }
}
BENCHMARK(BM_DreamDecode);

void BM_EccEncode(benchmark::State& state) {
  const core::EccSecDed ecc;
  fixed::Sample s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecc.encode_payload(s));
    s = static_cast<fixed::Sample>(s + 7);
  }
}
BENCHMARK(BM_EccEncode);

void BM_EccDecodeWithError(benchmark::State& state) {
  const core::EccSecDed ecc;
  fixed::Sample s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecc.decode(ecc.encode_payload(s) ^ 0x10u, 0));
    s = static_cast<fixed::Sample>(s + 7);
  }
}
BENCHMARK(BM_EccDecodeWithError);

void BM_ProtectedBufferAccess(benchmark::State& state) {
  const core::Dream dream;
  core::MemorySystem system(dream, 4096);
  util::Xoshiro256 rng(1);
  const mem::FaultMap map =
      mem::FaultMap::random(4096, 16, 1e-3, rng);
  system.attach_faults(&map);
  auto buf = core::ProtectedBuffer::allocate(system, 4096);
  std::size_t i = 0;
  for (auto _ : state) {
    buf.set(i, static_cast<fixed::Sample>(i));
    benchmark::DoNotOptimize(buf.get(i));
    i = (i + 1) % 4096;
  }
}
BENCHMARK(BM_ProtectedBufferAccess);

void BM_ProtectedBufferBlockAccess(benchmark::State& state) {
  const core::Dream dream;
  core::MemorySystem system(dream, 4096);
  util::Xoshiro256 rng(1);
  const mem::FaultMap map =
      mem::FaultMap::random(4096, 16, 1e-3, rng);
  system.attach_faults(&map);
  auto buf = core::ProtectedBuffer::allocate(system, 4096);
  fixed::SampleVec window(4096);
  for (std::size_t i = 0; i < window.size(); ++i) {
    window[i] = static_cast<fixed::Sample>(i);
  }
  for (auto _ : state) {
    buf.load(0, std::span<const fixed::Sample>(window.data(), window.size()));
    buf.store(0, std::span<fixed::Sample>(window.data(), window.size()));
    benchmark::DoNotOptimize(window.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2 * 4096);
}
BENCHMARK(BM_ProtectedBufferBlockAccess);

/// One paper-geometry map at the log-linear BER of the argument's
/// voltage in centivolts: 0.50 V places ~7,200 faults and 0.90 V almost
/// none, so the per-fault and the fixed cost show apart.
void BM_FaultMapGeneration(benchmark::State& state) {
  util::Xoshiro256 rng(2);
  const double ber =
      mem::LogLinearBerModel().ber(static_cast<double>(state.range(0)) / 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mem::FaultMap::random(mem::MemoryGeometry::kWords16, 22, ber, rng));
  }
}
BENCHMARK(BM_FaultMapGeneration)->Arg(50)->Arg(55)->Arg(60)->Arg(70)->Arg(90);

void BM_DwtMulti2048(benchmark::State& state) {
  const ecg::Record rec = ecg::make_default_record(1);
  signal::VecBuffer in(fixed::SampleVec(rec.samples.begin(),
                                        rec.samples.begin() + 2048));
  signal::VecBuffer out(2048);
  signal::VecBuffer scratch(2048);
  const signal::FixedBank bank =
      signal::fixed_bank(signal::WaveletFamily::kDb4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        signal::dwt_multi(in, 2048, bank, 4, out, scratch));
  }
}
BENCHMARK(BM_DwtMulti2048);

void BM_MorphologyOpen2048(benchmark::State& state) {
  const ecg::Record rec = ecg::make_default_record(1);
  signal::VecBuffer in(fixed::SampleVec(rec.samples.begin(),
                                        rec.samples.begin() + 2048));
  signal::VecBuffer tmp(2048);
  signal::VecBuffer out(2048);
  for (auto _ : state) {
    signal::open(in, tmp, out, 13, 2048);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_MorphologyOpen2048);

// The OMP benchmarks build their dictionary (and so its Gram matrix)
// outside the timed loop: that is per-dictionary setup, not per-solve work.
void BM_OmpReconstruct(benchmark::State& state) {
  const cs::OmpDictionary dict(cs::bernoulli_matrix(128, 256, 5));
  util::Xoshiro256 rng(3);
  std::vector<double> y(128);
  for (auto& v : y) v = rng.gaussian();
  cs::OmpConfig cfg;
  cfg.max_atoms = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cs::omp_solve(dict, y, cfg));
  }
}
BENCHMARK(BM_OmpReconstruct)->Arg(16)->Arg(32)->Arg(64);

/// One solve as the CS app's base station runs it: the shipped
/// CsReconstructor dictionary and configuration, and the measurement of an
/// ECG block.
void BM_OmpReconstructEcg(benchmark::State& state) {
  const cs::CsReconstructor recon(cs::CsConfig{});
  const ecg::Record rec = ecg::make_default_record(3);
  std::vector<double> x(recon.config().block_n);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<double>(rec.samples[i]);
  }
  const std::vector<double> y =
      recon.phi().project(recon.phi().row_columns(), x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cs::omp_solve(recon.dictionary(), y, recon.config().omp));
  }
}
BENCHMARK(BM_OmpReconstructEcg);

}  // namespace
#endif  // ULPDREAM_HAVE_GBENCH

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.has("datapath")) return run_datapath(cli);
#ifdef ULPDREAM_HAVE_GBENCH
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
#else
  std::fprintf(stderr,
               "google-benchmark not available; run with --datapath for the "
               "scalar-vs-block data-path benchmark\n");
  return 1;
#endif
}
