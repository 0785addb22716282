// Leased-execution microbenchmark: the daemon-side costs that bound a
// grid's scale-out over workers — frame round-trip latency/throughput on
// the wire protocol (a socketpair, so the numbers are protocol + kernel,
// no network), shard-sized LeaseResult ingest bandwidth, and LeaseTable
// grant/complete/expiry churn. Self-timed, no external benchmark
// dependency; emits machine-readable JSON (stdout, or --json FILE with a
// human summary on stderr) — the CI artifact BENCH_dist.json.
//
//   dist_bench --json BENCH_dist.json
//   dist_bench --frames 20000 --payload 65536     # one custom point

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ulpdream/serve/lease_table.hpp"
#include "ulpdream/serve/protocol.hpp"
#include "ulpdream/util/cli.hpp"
#include "ulpdream/util/socket.hpp"

using namespace ulpdream;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct WireTimings {
  std::size_t frames = 0;
  std::size_t payload_bytes = 0;
  double seconds = 0.0;

  [[nodiscard]] double frames_per_s() const {
    return seconds > 0 ? static_cast<double>(frames) / seconds : 0.0;
  }
  [[nodiscard]] double mib_per_s() const {
    return seconds > 0 ? static_cast<double>(frames) *
                             static_cast<double>(payload_bytes) /
                             (seconds * 1024.0 * 1024.0)
                       : 0.0;
  }
};

/// LeaseResult -> ResultAck ping-pong: the exact exchange a worker's
/// shard upload makes, echo thread playing the daemon.
WireTimings bench_wire(std::size_t frames, std::size_t payload_bytes) {
  auto [worker, daemon] = util::Socket::socketpair("dist-bench");
  std::thread echo([&daemon = daemon, frames] {
    util::Frame frame;
    for (std::size_t i = 0; i < frames; ++i) {
      if (!serve::receive(daemon, frame)) return;
      const serve::LeaseResult result =
          serve::decode_lease_result(frame, daemon.peer());
      send(daemon, serve::ResultAck{result.lease_id});
    }
  });

  const std::vector<std::uint8_t> payload(payload_bytes, 0xa5);
  WireTimings t;
  t.frames = frames;
  t.payload_bytes = payload_bytes;
  const auto start = Clock::now();
  util::Frame frame;
  for (std::size_t i = 0; i < frames; ++i) {
    send(worker, serve::LeaseResult{i, payload});
    if (!serve::receive(worker, frame)) break;
    (void)serve::decode_result_ack(frame, worker.peer());
  }
  t.seconds = seconds_since(start);
  echo.join();
  return t;
}

struct TableTimings {
  std::size_t leases = 0;
  double grant_complete_s = 0.0;
  double churn_s = 0.0;  ///< grant + expire + re-grant + complete

  [[nodiscard]] double leases_per_s() const {
    return grant_complete_s > 0
               ? static_cast<double>(leases) / grant_complete_s
               : 0.0;
  }
  [[nodiscard]] double churn_leases_per_s() const {
    return churn_s > 0 ? static_cast<double>(leases) / churn_s : 0.0;
  }
};

TableTimings bench_table(std::size_t items, std::size_t lease_items) {
  TableTimings t;
  t.leases = (items + lease_items - 1) / lease_items;
  const auto now = serve::LeaseTable::Clock::now();

  {
    serve::LeaseTable table(items, lease_items, std::chrono::seconds(60));
    serve::LeaseTable::Lease lease;
    const auto start = Clock::now();
    while (table.grant("bench", now, lease)) table.complete(lease.id);
    t.grant_complete_s = seconds_since(start);
    if (!table.all_done()) {
      std::fprintf(stderr, "bench_table: grant/complete did not drain\n");
      std::exit(1);
    }
  }

  {
    // Worst-case churn: every lease expires once before its re-grant
    // completes — the recovery path after a mass worker death.
    serve::LeaseTable table(items, lease_items,
                           std::chrono::milliseconds(1));
    serve::LeaseTable::Lease lease;
    const auto late = now + std::chrono::seconds(1);
    const auto start = Clock::now();
    while (table.grant("bench", now, lease)) {
      (void)table.expire_due(late);
      serve::LeaseTable::Lease again;
      if (!table.grant("bench", late, again)) break;
      table.complete(again.id);
    }
    t.churn_s = seconds_since(start);
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const auto frames =
      static_cast<std::size_t>(cli.get_int("frames", 5'000));
  const auto items = static_cast<std::size_t>(
      cli.get_int("items", 1'000'000));
  const auto lease_items =
      static_cast<std::size_t>(cli.get_int("lease-items", 256));

  std::ostringstream json;
  json << "{\n  \"benchmark\": \"dist\",\n  \"wire\": [\n";
  const std::size_t payloads[] = {64, 4096, 65'536, 1'048'576};
  bool first = true;
  for (const std::size_t payload : payloads) {
    // Big payloads get fewer frames so the bench stays sub-second.
    const std::size_t n =
        payload >= 1'048'576 ? std::max<std::size_t>(frames / 50, 10)
        : payload >= 65'536  ? std::max<std::size_t>(frames / 5, 50)
                             : frames;
    const WireTimings t = bench_wire(n, payload);
    json << (first ? "" : ",\n") << "    {\"payload_bytes\": " << payload
         << ", \"frames\": " << t.frames << ", \"seconds\": " << t.seconds
         << ", \"frames_per_s\": " << t.frames_per_s()
         << ", \"mib_per_s\": " << t.mib_per_s() << "}";
    first = false;
    std::fprintf(stderr,
                 "wire   payload=%8zu B  %9.0f frames/s  %8.1f MiB/s\n",
                 payload, t.frames_per_s(), t.mib_per_s());
  }
  const TableTimings table = bench_table(items, lease_items);
  json << "\n  ],\n  \"lease_table\": {\"items\": " << items
       << ", \"lease_items\": " << lease_items
       << ", \"leases\": " << table.leases
       << ", \"grant_complete_leases_per_s\": " << table.leases_per_s()
       << ", \"expiry_churn_leases_per_s\": " << table.churn_leases_per_s()
       << "}\n}\n";
  std::fprintf(stderr,
               "table  %zu items / %zu per lease: %9.0f leases/s clean, "
               "%9.0f leases/s with expiry churn\n",
               items, lease_items, table.leases_per_s(),
               table.churn_leases_per_s());

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
  return 0;
}
