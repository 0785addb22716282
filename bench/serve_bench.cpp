// Query-daemon latency benchmark: what a warm cache buys. Spins up a
// real Daemon on a Unix socket in a scratch directory and times, over
// the actual wire protocol, (a) a cold query that executes the whole
// grid, (b) repeated exact-hit queries answered from the mapped cache
// (min over N, measuring the floor a client sees), and (c) a superset
// query that gap-fills from the cached prefix. Self-timed, no external
// benchmark dependency; emits machine-readable JSON (stdout, or
// --json FILE with a human summary on stderr) — the CI artifact
// BENCH_serve.json.
//
//   serve_bench --json BENCH_serve.json
//   serve_bench --reps 8 --warm-queries 32
//   serve_bench --assert-speedup 50     # exit 1 unless warm >= 50x cold
//
// The cold/warm ratio is the daemon's whole reason to exist, so CI runs
// with --assert-speedup: a regression that makes hits recompute (or
// drags a file copy into the hot path) fails the build, not just a
// dashboard.

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "ulpdream/campaign/spec.hpp"
#include "ulpdream/serve/client.hpp"
#include "ulpdream/serve/daemon.hpp"
#include "ulpdream/util/cli.hpp"

using namespace ulpdream;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

namespace {

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

campaign::CampaignSpec bench_spec(std::size_t reps, std::size_t records) {
  campaign::CampaignSpec spec;
  spec.apps = {"dwt"};
  spec.emts = {"none", "dream"};
  spec.voltages = {0.6, 0.7, 0.8};
  for (std::size_t i = 0; i < records; ++i) {
    spec.records.push_back(campaign::RecordAxis{
        ecg::Pathology::kNormalSinus, 1.0 + double(i), 7});
  }
  spec.repetitions = reps;
  spec.seed = 77;
  return spec.normalized();
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto reps =
      static_cast<std::size_t>(std::max<long long>(1, cli.get_int("reps", 4)));
  const auto warm_queries = static_cast<std::size_t>(
      std::max<long long>(1, cli.get_int("warm-queries", 16)));
  const double assert_speedup = cli.get_double("assert-speedup", 0.0);

  const fs::path dir = fs::temp_directory_path() /
                       ("ulpd_serve_bench_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  serve::Daemon::Options options;
  options.listen = "unix:" + (dir / "bench.sock").string();
  options.cache_dir = (dir / "cache").string();
  options.progress_every_ms = 20;
  serve::Daemon daemon(options);
  std::thread server([&daemon] { (void)daemon.run(); });

  const campaign::CampaignSpec prefix = bench_spec(reps, 1);
  const campaign::CampaignSpec superset = bench_spec(reps, 2);
  serve::Client client = serve::Client::connect(daemon.endpoint());

  // (a) Cold: the whole grid executes on the daemon's pool.
  auto t0 = Clock::now();
  const serve::Result cold = client.query(prefix);
  const double cold_ms = ms_since(t0);

  // (b) Warm floor: min over N exact hits on the same connection.
  double warm_ms = 0.0;
  for (std::size_t i = 0; i < warm_queries; ++i) {
    t0 = Clock::now();
    const serve::Result warm = client.query(prefix);
    const double ms = ms_since(t0);
    if (warm.status != serve::CacheStatus::kHit) {
      std::fprintf(stderr, "expected a cache hit, got %s\n",
                   serve::to_string(warm.status));
      return 1;
    }
    if (i == 0 || ms < warm_ms) warm_ms = ms;
  }

  // (c) Gap-fill: double the record axis, reuse the cached half.
  t0 = Clock::now();
  const serve::Result filled = client.query(superset);
  const double gapfill_ms = ms_since(t0);

  daemon.request_stop();
  server.join();

  const double speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;
  std::ostringstream json;
  json << "{\n  \"benchmark\": \"serve\",\n"
       << "  \"grid_items\": " << cold.items_total << ",\n"
       << "  \"store_bytes\": " << cold.store_bytes.size() << ",\n"
       << "  \"cold_ms\": " << cold_ms << ",\n"
       << "  \"warm_ms\": " << warm_ms << ",\n"
       << "  \"warm_queries\": " << warm_queries << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"gapfill_ms\": " << gapfill_ms << ",\n"
       << "  \"gapfill_items_total\": " << filled.items_total << ",\n"
       << "  \"gapfill_items_executed\": " << filled.items_executed << "\n"
       << "}\n";

  const std::string json_path = cli.get("json", "");
  if (json_path.empty()) {
    std::cout << json.str();
  } else {
    std::ofstream os(json_path);
    os << json.str();
    if (!os) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  std::fprintf(stderr,
               "serve: cold %.1f ms, warm %.3f ms (min of %zu), %.0fx; "
               "gap-fill %.1f ms (%llu of %llu items executed)\n",
               cold_ms, warm_ms, warm_queries, speedup, gapfill_ms,
               static_cast<unsigned long long>(filled.items_executed),
               static_cast<unsigned long long>(filled.items_total));

  fs::remove_all(dir);
  if (assert_speedup > 0.0 && speedup < assert_speedup) {
    std::fprintf(stderr,
                 "FAIL: warm/cold speedup %.1fx below the required %.1fx\n",
                 speedup, assert_speedup);
    return 1;
  }
  return 0;
}
