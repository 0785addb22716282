// Leased execution pinned deterministically: a daemon whose grids run
// as leases on attached workers — including workers that speak an old
// protocol, die mid-lease, die between leases, or deliver a result after
// their lease lapsed — must answer with a columnar store byte-identical
// to a single-process save_columnar of the same spec. Honest workers are
// the real serve::Worker; faults come from a frame-level peer (Peer
// below) on the daemon's Unix socket that stops at an exact point, and
// every test waits on daemon state (serve.workers_attached,
// serve.leases_expired, ...), never on time; a time bound serves only to
// turn a hung query into a failure. The malformed-frame matrix
// pins the error taxonomy: transport-level garbage is a util::FrameError
// of the exact kind, payload-level garbage is a ProtocolError, and both
// name the peer.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ulpdream/campaign/session.hpp"
#include "ulpdream/campaign/spec.hpp"
#include "ulpdream/ecg/database.hpp"
#include "ulpdream/energy/energy_model.hpp"
#include "ulpdream/serve/client.hpp"
#include "ulpdream/serve/daemon.hpp"
#include "ulpdream/serve/lease_table.hpp"
#include "ulpdream/serve/protocol.hpp"
#include "ulpdream/serve/worker.hpp"
#include "ulpdream/util/socket.hpp"
#include "ulpdream/util/wire.hpp"

namespace ulpdream::serve {
namespace {

namespace fs = std::filesystem;
using campaign::CampaignSpec;
using campaign::RecordAxis;
using util::Frame;
using util::FrameError;
using util::Socket;

/// Small, fast grid: items = records x voltages x reps (apps and EMTs
/// run inside each item), so small_spec(s, 6) is 12 items, 4 leases of 3.
CampaignSpec small_spec(std::uint64_t seed, std::size_t reps = 3,
                        std::size_t records = 1) {
  CampaignSpec spec;
  spec.apps = {"dwt"};
  spec.emts = {"none", "dream"};
  spec.voltages = {0.7, 0.8};
  for (std::size_t i = 0; i < records; ++i) {
    spec.records.push_back(
        RecordAxis{ecg::Pathology::kNormalSinus, 1.0 + double(i), 7});
  }
  spec.repetitions = reps;
  spec.seed = seed;
  return spec.normalized();
}

std::string slurp(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is) << "cannot open " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

std::string as_text(const std::vector<std::uint8_t>& bytes) {
  return std::string(bytes.begin(), bytes.end());
}

/// Fresh scratch directory per test (cache, socket, outputs), unique per
/// process: two runs of one case at once must not share it.
fs::path scratch(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() /
                       ("ulpd_dist_" + name + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Columnar bytes of `spec`'s items [begin, end) run on a private
/// session; the whole grid by default — the single-process reference.
std::string columnar_bytes(const CampaignSpec& spec, const fs::path& path,
                           std::size_t begin = 0, std::size_t end = 0) {
  campaign::Session session(energy::SystemEnergyModel(), 2);
  campaign::SubmitOptions options;
  if (end != 0) options.item_range = campaign::ItemRange{begin, end};
  session.submit(spec, options).take().save_columnar(path.string());
  return slurp(path);
}

/// A daemon on a Unix socket with run() on a background thread; leases
/// of 3 items, a TTL tests never wait out unless they shorten it.
class LeasingDaemon {
 public:
  explicit LeasingDaemon(const fs::path& dir,
                         std::size_t lease_ttl_ms = 60'000) {
    Daemon::Options options;
    options.listen = "unix:" + (dir / "daemon.sock").string();
    options.cache_dir = (dir / "cache").string();
    options.threads = 2;
    options.progress_every_ms = 5;
    options.lease_items = 3;
    options.lease_ttl_ms = lease_ttl_ms;
    options.heartbeat_ms = 20;
    daemon_ = std::make_unique<Daemon>(options);
    thread_ = std::thread([this] { report_ = daemon_->run(); });
  }
  ~LeasingDaemon() { stop(); }

  Daemon& daemon() { return *daemon_; }
  const std::string& endpoint() { return daemon_->endpoint(); }

  std::uint64_t counter(const char* name) {
    const auto metrics = daemon_->telemetry();
    const auto it = metrics.counters.find(name);
    return it == metrics.counters.end() ? 0 : it->second;
  }
  double gauge(const char* name) {
    const auto metrics = daemon_->telemetry();
    const auto it = metrics.gauges.find(name);
    return it == metrics.gauges.end() ? 0.0 : it->second;
  }
  /// Blocks until `ready()` holds — state, not time, orders every test.
  template <typename Ready>
  void await(Ready ready) {
    while (!ready()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  void await_workers(double n) {
    await([&] { return gauge("serve.workers_attached") == n; });
  }

  /// Runs `spec` as a query on its own connection, asynchronously.
  std::future<Result> query(const CampaignSpec& spec) {
    return std::async(std::launch::async, [endpoint = endpoint(), spec] {
      return Client::connect(endpoint).query(spec);
    });
  }

  /// Stops the daemon and returns its drain report (idempotent).
  const Daemon::Report& stop() {
    if (thread_.joinable()) {
      daemon_->request_stop();
      thread_.join();
    }
    return report_;
  }

 private:
  std::unique_ptr<Daemon> daemon_;
  std::thread thread_;
  Daemon::Report report_;
};

/// The real worker on its own thread.
class WorkerThread {
 public:
  WorkerThread(const std::string& endpoint, const std::string& name)
      : thread_([this, endpoint, name] {
          Worker::Options options;
          options.connect = endpoint;
          options.name = name;
          options.threads = 2;
          try {
            report_ = Worker(options).run();
          } catch (const std::exception& e) {
            error_ = e.what();
          }
        }) {}
  ~WorkerThread() { join(); }

  void join() {
    if (thread_.joinable()) thread_.join();
  }
  /// Valid after join(): the lease tally and "" or the failure text.
  const Worker::Report& report() const { return report_; }
  const std::string& error() const { return error_; }

 private:
  Worker::Report report_;
  std::string error_;
  std::thread thread_;  // last: starts after the fields it writes exist
};

/// A frame-level worker that stops at an exact point of the
/// conversation: the fault injector the real Worker cannot be.
class Peer {
 public:
  explicit Peer(const std::string& endpoint)
      : socket_(Socket::connect(endpoint)) {}

  /// Sends a v2 Hello and returns the daemon's answer frame.
  Frame hello(const std::string& name) {
    send(socket_, Hello{kProtocolVersion, name});
    return next();
  }
  /// Asks for leases until one is granted (the grid may not be queued
  /// yet, or everything may be out on lease).
  LeaseGrant lease() {
    for (;;) {
      send(socket_, LeaseRequest{});
      const Frame frame = next();
      if (frame.type == static_cast<std::uint32_t>(MsgType::kLeaseGrant)) {
        return decode_lease_grant(frame, socket_.peer());
      }
      EXPECT_FALSE(decode_no_work(frame, socket_.peer()).done);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  /// Executes `grant` for real and delivers it; returns the ack's id.
  std::uint64_t deliver(const LeaseGrant& grant, const fs::path& dir) {
    const std::string bytes = columnar_bytes(
        grant.spec, dir / ("peer_" + std::to_string(grant.lease_id)),
        grant.begin, grant.end);
    send(socket_, LeaseResult{grant.lease_id, std::vector<std::uint8_t>(
                                                  bytes.begin(), bytes.end())});
    return decode_result_ack(next(), socket_.peer()).lease_id;
  }
  Frame next() {
    Frame frame;
    EXPECT_TRUE(receive(socket_, frame)) << "daemon hung up";
    return frame;
  }
  Socket& socket() { return socket_; }
  void die() { socket_.close(); }

 private:
  Socket socket_;
};

// ---------------------------------------------------------------------------
// LeaseTable

using Clock = LeaseTable::Clock;

TEST(LeaseTable, GrantsChunksUntilPoolDrainsThenRefusesUntilCompletion) {
  LeaseTable table(10, 4, std::chrono::seconds(60));
  const auto now = Clock::now();
  LeaseTable::Lease a;
  LeaseTable::Lease b;
  LeaseTable::Lease c;
  ASSERT_TRUE(table.grant("w1", now, a));
  EXPECT_EQ(a.begin, 0u);
  EXPECT_EQ(a.end, 4u);
  ASSERT_TRUE(table.grant("w2", now, b));
  EXPECT_EQ(b.begin, 4u);
  EXPECT_EQ(b.end, 8u);
  ASSERT_TRUE(table.grant("w1", now, c));
  EXPECT_EQ(c.begin, 8u);
  EXPECT_EQ(c.end, 10u);  // last grant clipped to the pool
  LeaseTable::Lease d;
  EXPECT_FALSE(table.grant("w2", now, d));  // everything leased out
  EXPECT_EQ(table.active_leases(), 3u);

  EXPECT_TRUE(table.complete(a.id));
  EXPECT_TRUE(table.complete(b.id));
  EXPECT_FALSE(table.all_done());
  EXPECT_TRUE(table.complete(c.id));
  EXPECT_TRUE(table.all_done());
  EXPECT_EQ(table.items_done(), 10u);
  EXPECT_EQ(table.active_leases(), 0u);
}

TEST(LeaseTable, ExpiredLeaseReturnsToFrontAndStaleCompleteIsFlagged) {
  LeaseTable table(8, 8, std::chrono::milliseconds(100));
  const auto t0 = Clock::now();
  LeaseTable::Lease original;
  ASSERT_TRUE(table.grant("w1", t0, original));

  // Renew keeps it alive past the first deadline...
  ASSERT_TRUE(table.renew(original.id, t0 + std::chrono::milliseconds(90)));
  EXPECT_TRUE(table.expire_due(t0 + std::chrono::milliseconds(150)).empty());

  // ...but silence expires it, and the range is grantable again.
  const auto expired = table.expire_due(t0 + std::chrono::seconds(1));
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, original.id);
  LeaseTable::Lease release;
  ASSERT_TRUE(table.grant("w2", t0 + std::chrono::seconds(1), release));
  EXPECT_EQ(release.begin, original.begin);
  EXPECT_EQ(release.end, original.end);

  // The original worker finishing anyway is stale — complete() says so,
  // complete_range() still credits the items exactly once.
  EXPECT_FALSE(table.complete(original.id));
  table.complete_range(original.begin, original.end);
  EXPECT_TRUE(table.all_done());
  table.complete_range(original.begin, original.end);  // idempotent
  EXPECT_EQ(table.items_done(), 8u);
}

TEST(LeaseTable, RevokedRangesStayContiguousAndSkipFinishedWork) {
  LeaseTable table(12, 4, std::chrono::seconds(60));
  const auto now = Clock::now();
  LeaseTable::Lease a;
  LeaseTable::Lease b;
  ASSERT_TRUE(table.grant("dead", now, a));   // [0, 4)
  ASSERT_TRUE(table.grant("live", now, b));   // [4, 8)
  ASSERT_TRUE(table.complete(b.id));

  const auto revoked = table.revoke_owner("dead");
  ASSERT_EQ(revoked.size(), 1u);
  EXPECT_EQ(revoked[0].begin, 0u);

  // Revoked [0, 4) comes back FIRST (front of the pool), then [8, 12).
  LeaseTable::Lease next;
  ASSERT_TRUE(table.grant("live", now, next));
  EXPECT_EQ(next.begin, 0u);
  EXPECT_EQ(next.end, 4u);
  ASSERT_TRUE(table.grant("live", now, next));
  EXPECT_EQ(next.begin, 8u);
  EXPECT_EQ(next.end, 12u);

  // A re-leased range whose middle finished under another lease is
  // clipped around the done interval, never re-granted.
  table.complete_range(1, 3);
  const auto relisted = table.revoke_owner("live");
  EXPECT_EQ(relisted.size(), 2u);
  ASSERT_TRUE(table.grant("w3", now, next));
  EXPECT_EQ(next.begin, 0u);
  EXPECT_EQ(next.end, 1u);  // clipped at the done interval [1, 3)
  ASSERT_TRUE(table.grant("w3", now, next));
  EXPECT_EQ(next.begin, 3u);
  EXPECT_EQ(next.end, 4u);
}

// ---------------------------------------------------------------------------
// Malformed-frame matrix: every way a peer can fail to speak the
// protocol maps to a distinct, typed, peer-naming error.

TEST(Protocol, CleanEofBetweenFramesIsNotAnError) {
  auto [near, far] = Socket::socketpair("eof-test");
  far.close();
  Frame frame;
  EXPECT_FALSE(util::read_frame(near, frame, kMaxFrameBytes));
}

TEST(Protocol, BadMagicThrowsNamingThePeer) {
  auto [near, far] = Socket::socketpair("magic-test");
  const char junk[24] = "this is not a frame....";
  far.write_all(junk, sizeof junk);
  Frame frame;
  try {
    (void)util::read_frame(near, frame, kMaxFrameBytes);
    FAIL() << "garbage magic must throw";
  } catch (const FrameError& e) {
    EXPECT_EQ(e.kind(), FrameError::Kind::kBadMagic);
    EXPECT_NE(std::string(e.what()).find("magic-test"), std::string::npos)
        << e.what();
  }
}

TEST(Protocol, OversizedLengthPrefixThrowsBeforeAllocating) {
  auto [near, far] = Socket::socketpair("oversize-test");
  std::uint8_t header[util::kFrameHeaderBytes] = {};
  std::memcpy(header, util::kFrameMagic, 8);
  const std::uint32_t type = 1;
  std::memcpy(header + 8, &type, 4);
  const std::uint64_t huge = std::uint64_t(1) << 40;  // 1 TiB claim
  std::memcpy(header + 16, &huge, 8);
  far.write_all(header, sizeof header);
  Frame frame;
  try {
    (void)util::read_frame(near, frame, kMaxFrameBytes);
    FAIL() << "oversized length prefix must throw";
  } catch (const FrameError& e) {
    EXPECT_EQ(e.kind(), FrameError::Kind::kOversized);
    EXPECT_NE(std::string(e.what()).find("oversize-test"), std::string::npos);
  }
}

TEST(Protocol, TruncatedHeaderThrowsTruncated) {
  auto [near, far] = Socket::socketpair("trunc-header");
  const char partial[10] = {'U', 'L', 'P', 'D', 'F', 'R', 'M', '1', 0, 0};
  far.write_all(partial, sizeof partial);
  far.close();  // died 10 bytes into a 24-byte header
  Frame frame;
  try {
    (void)util::read_frame(near, frame, kMaxFrameBytes);
    FAIL() << "mid-header EOF must throw";
  } catch (const FrameError& e) {
    EXPECT_EQ(e.kind(), FrameError::Kind::kTruncated);
    EXPECT_NE(std::string(e.what()).find("trunc-header"), std::string::npos);
  }
}

TEST(Protocol, MidFramePayloadDisconnectThrowsTruncated) {
  auto [near, far] = Socket::socketpair("trunc-payload");
  std::uint8_t header[util::kFrameHeaderBytes] = {};
  std::memcpy(header, util::kFrameMagic, 8);
  const std::uint32_t type = 7;
  std::memcpy(header + 8, &type, 4);
  const std::uint64_t claimed = 100;
  std::memcpy(header + 16, &claimed, 8);
  far.write_all(header, sizeof header);
  far.write_all("only ten b", 10);  // 10 of the claimed 100 bytes
  far.close();
  Frame frame;
  try {
    (void)util::read_frame(near, frame, kMaxFrameBytes);
    FAIL() << "mid-payload EOF must throw";
  } catch (const FrameError& e) {
    EXPECT_EQ(e.kind(), FrameError::Kind::kTruncated);
    EXPECT_NE(std::string(e.what()).find("trunc-payload"), std::string::npos);
  }
}

TEST(Protocol, GarbagePayloadThrowsProtocolErrorNamingTheField) {
  auto [near, far] = Socket::socketpair("garbage-payload");
  // A LeaseGrant claims three u64s; three junk bytes cannot satisfy the
  // first field, and the decoder must say which one.
  const std::vector<std::uint8_t> junk = {0xde, 0xad, 0xbf};
  util::write_frame(far, static_cast<std::uint32_t>(MsgType::kLeaseGrant),
                    junk);
  Frame frame;
  ASSERT_TRUE(util::read_frame(near, frame, kMaxFrameBytes));
  try {
    (void)decode_lease_grant(frame, near.peer());
    FAIL() << "truncated field must throw";
  } catch (const ProtocolError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("garbage-payload"), std::string::npos) << what;
    EXPECT_NE(what.find("truncated field 'lease_id'"), std::string::npos)
        << what;
  }
}

TEST(Protocol, TrailingBytesAfterValidPayloadAreRejected) {
  auto [near, far] = Socket::socketpair("trailing-bytes");
  // A valid HelloOk (one u64) plus one smuggled byte.
  std::vector<std::uint8_t> payload(9, 0);
  util::write_frame(far, static_cast<std::uint32_t>(MsgType::kHelloOk),
                    payload);
  Frame frame;
  ASSERT_TRUE(util::read_frame(near, frame, kMaxFrameBytes));
  try {
    (void)decode_hello_ok(frame, near.peer());
    FAIL() << "trailing bytes must throw";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("trailing bytes"),
              std::string::npos)
        << e.what();
  }
}

TEST(Protocol, DecodingTheWrongTypeNamesBothTypes) {
  auto [near, far] = Socket::socketpair("wrong-type");
  send(far, Goodbye{});
  Frame frame;
  ASSERT_TRUE(receive(near, frame));
  try {
    (void)decode_hello(frame, near.peer());
    FAIL() << "type mismatch must throw";
  } catch (const ProtocolError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("expected Hello frame, got Goodbye"),
              std::string::npos)
        << what;
  }
}

TEST(Protocol, MessagesRoundTripThroughTheWire) {
  auto [near, far] = Socket::socketpair("round-trip");
  const CampaignSpec spec = small_spec(5, 8);
  send(far, Hello{kProtocolVersion, "w0"});
  send(far, LeaseGrant{7, spec, 12, 24});
  send(far, LeaseResult{7, {1, 2, 3, 4, 5}});
  send(far, NoWork{true, 250});
  Frame frame;
  ASSERT_TRUE(receive(near, frame));
  const Hello hello = decode_hello(frame, near.peer());
  EXPECT_EQ(hello.version, kProtocolVersion);
  EXPECT_EQ(hello.worker_name, "w0");
  ASSERT_TRUE(receive(near, frame));
  const LeaseGrant grant = decode_lease_grant(frame, near.peer());
  EXPECT_EQ(grant.lease_id, 7u);
  EXPECT_EQ(grant.spec.fingerprint(), spec.fingerprint());
  EXPECT_EQ(grant.begin, 12u);
  EXPECT_EQ(grant.end, 24u);
  ASSERT_TRUE(receive(near, frame));
  const LeaseResult result = decode_lease_result(frame, near.peer());
  EXPECT_EQ(result.lease_id, 7u);
  EXPECT_EQ(result.store_bytes, (std::vector<std::uint8_t>{1, 2, 3, 4, 5}));
  ASSERT_TRUE(receive(near, frame));
  const NoWork nowork = decode_no_work(frame, near.peer());
  EXPECT_TRUE(nowork.done);
  EXPECT_EQ(nowork.retry_ms, 250u);
}

// ---------------------------------------------------------------------------
// The daemon coordinating its workers: leased execution, end to end.

TEST(LeasedDaemon, ThreeWorkersMergeByteIdenticalToSingleProcessRun) {
  const fs::path dir = scratch("three_workers");
  const CampaignSpec spec = small_spec(2016, 6);  // 12 items, 4 leases
  const std::string reference = columnar_bytes(spec, dir / "ref.ulpdcol");

  LeasingDaemon daemon(dir);
  WorkerThread w0(daemon.endpoint(), "w0");
  WorkerThread w1(daemon.endpoint(), "w1");
  WorkerThread w2(daemon.endpoint(), "w2");
  daemon.await_workers(3);
  const Result result = daemon.query(spec).get();
  EXPECT_EQ(result.status, CacheStatus::kCold);
  EXPECT_EQ(result.items_executed, spec.item_count());
  EXPECT_EQ(as_text(result.store_bytes), reference)
      << "leased answer differs from the single-process reference";
  const std::uint64_t shards = daemon.counter("serve.shards_ingested");
  EXPECT_EQ(shards, 4u);
  EXPECT_EQ(daemon.counter("serve.leases_granted"), 4u);

  const Daemon::Report& report = daemon.stop();
  w0.join();
  w1.join();
  w2.join();
  EXPECT_EQ(w0.error() + w1.error() + w2.error(), "");
  EXPECT_EQ(report.workers, 3u);
  EXPECT_EQ(report.cold_runs, 1u);
  EXPECT_EQ(w0.report().leases_completed + w1.report().leases_completed +
                w2.report().leases_completed,
            shards);
  EXPECT_EQ(w0.report().items_executed + w1.report().items_executed +
                w2.report().items_executed,
            spec.item_count());
}

TEST(LeasedDaemon, WorkerDeathMidLeaseIsReleasedAndMergeStaysByteIdentical) {
  const fs::path dir = scratch("mid_lease_death");
  const CampaignSpec spec = small_spec(99, 4);  // 8 items
  LeasingDaemon daemon(dir);

  // The victim takes one grant and vanishes without executing it; its
  // disconnect must revoke the lease so the survivor finishes the grid.
  Peer victim(daemon.endpoint());
  ASSERT_EQ(victim.hello("victim").type,
            static_cast<std::uint32_t>(MsgType::kHelloOk));
  daemon.await_workers(1);
  auto answer = daemon.query(spec);
  (void)victim.lease();
  victim.die();
  daemon.await_workers(0);
  EXPECT_EQ(daemon.counter("serve.leases_revoked"), 1u);

  WorkerThread survivor(daemon.endpoint(), "survivor");
  EXPECT_EQ(as_text(answer.get().store_bytes),
            columnar_bytes(spec, dir / "ref.ulpdcol"))
      << "answer differs after mid-lease worker death";
  daemon.stop();
  survivor.join();
  EXPECT_EQ(survivor.error(), "");
}

TEST(LeasedDaemon, WorkerDeathBetweenLeasesIsAbsorbed) {
  const fs::path dir = scratch("between_lease_death");
  const CampaignSpec spec = small_spec(7, 6);  // 12 items, 4 leases
  LeasingDaemon daemon(dir);

  Peer mortal(daemon.endpoint());
  (void)mortal.hello("mortal");
  daemon.await_workers(1);
  auto answer = daemon.query(spec);
  const LeaseGrant grant = mortal.lease();
  EXPECT_EQ(mortal.deliver(grant, dir), grant.lease_id);
  mortal.die();  // without a Goodbye
  daemon.await_workers(0);
  EXPECT_EQ(daemon.counter("serve.leases_revoked"), 0u);

  WorkerThread survivor(daemon.endpoint(), "survivor");
  EXPECT_EQ(as_text(answer.get().store_bytes),
            columnar_bytes(spec, dir / "ref.ulpdcol"));
  EXPECT_EQ(daemon.counter("serve.shards_ingested"), 4u);
  daemon.stop();
  survivor.join();
  EXPECT_EQ(survivor.error(), "");
  EXPECT_EQ(survivor.report().leases_completed, 3u);
}

TEST(LeasedDaemon, ProtocolVersionMismatchIsRejectedQuotingBothVersions) {
  const fs::path dir = scratch("version_reject");
  const CampaignSpec spec = small_spec(12, 2);
  LeasingDaemon daemon(dir);

  Peer relic(daemon.endpoint());
  send(relic.socket(), Hello{999, "relic"});
  Frame frame = relic.next();
  std::string reason = decode_hello_reject(frame, "daemon").reason;
  EXPECT_NE(reason.find("999"), std::string::npos) << reason;
  EXPECT_NE(reason.find(std::to_string(kProtocolVersion)), std::string::npos)
      << reason;

  // A version-1 Hello still carries the campaign fingerprint before the
  // name: it must be rejected by number, not fail to decode.
  Peer v1(daemon.endpoint());
  util::PayloadWriter hello;
  hello.put_u32(1);
  hello.put_string(spec.fingerprint());
  hello.put_string("v1-worker");
  util::write_frame(v1.socket(), static_cast<std::uint32_t>(MsgType::kHello),
                    hello.bytes());
  frame = v1.next();
  reason = decode_hello_reject(frame, "daemon").reason;
  EXPECT_NE(reason.find("speaks 2, worker sent 1"), std::string::npos)
      << reason;

  WorkerThread honest(daemon.endpoint(), "honest");
  daemon.await_workers(1);
  EXPECT_EQ(as_text(daemon.query(spec).get().store_bytes),
            columnar_bytes(spec, dir / "ref.ulpdcol"));
  EXPECT_EQ(daemon.stop().workers, 1u);
  honest.join();
  EXPECT_EQ(honest.error(), "");
}

TEST(LeasedDaemon, StaleResultIsIngestedAndTheAnswerStaysByteIdentical) {
  const fs::path dir = scratch("stale_result");
  const CampaignSpec spec = small_spec(41, 6);  // 12 items, 4 leases
  LeasingDaemon daemon(dir, /*lease_ttl_ms=*/1'000);

  // The laggard holds its grant past the TTL without a heartbeat, then
  // delivers anyway: the range was expired back into the pool, so the
  // result is stale — still credited, never double-counted.
  Peer laggard(daemon.endpoint());
  (void)laggard.hello("laggard");
  daemon.await_workers(1);
  auto answer = daemon.query(spec);
  const LeaseGrant grant = laggard.lease();
  daemon.await([&] { return daemon.counter("serve.leases_expired") == 1; });
  EXPECT_EQ(laggard.deliver(grant, dir), grant.lease_id);
  EXPECT_EQ(daemon.counter("serve.stale_results"), 1u);

  WorkerThread survivor(daemon.endpoint(), "survivor");
  EXPECT_EQ(as_text(answer.get().store_bytes),
            columnar_bytes(spec, dir / "ref.ulpdcol"));
  send(laggard.socket(), Goodbye{});
  daemon.stop();
  survivor.join();
  EXPECT_EQ(survivor.error(), "");
  // The expired range was credited by the stale result, so the survivor
  // ran only the other three leases.
  EXPECT_EQ(survivor.report().items_executed, spec.item_count() - 3);
}

TEST(LeasedDaemon, LeasedGapFillExecutesOnlyTheGap) {
  const fs::path dir = scratch("leased_gap");
  const CampaignSpec prefix = small_spec(43, 3, 1);
  const CampaignSpec superset = small_spec(43, 3, 3);
  LeasingDaemon daemon(dir);
  // No worker yet: the prefix runs on the daemon's own session.
  EXPECT_EQ(daemon.query(prefix).get().status, CacheStatus::kCold);

  WorkerThread worker(daemon.endpoint(), "gap");
  daemon.await_workers(1);
  const Result filled = daemon.query(superset).get();
  EXPECT_EQ(filled.status, CacheStatus::kGapFill);
  EXPECT_EQ(filled.items_executed,
            superset.item_count() - prefix.item_count());
  EXPECT_EQ(as_text(filled.store_bytes),
            columnar_bytes(superset, dir / "ref.ulpdcol"));
  const Daemon::Report& report = daemon.stop();
  worker.join();
  EXPECT_EQ(worker.error(), "");
  EXPECT_EQ(worker.report().items_executed,
            superset.item_count() - prefix.item_count());
  EXPECT_EQ(report.gap_fills, 1u);
  EXPECT_EQ(report.items_reused, prefix.item_count());
}

TEST(LeasedDaemon, BadSpecAnswersErrorWithWorkersAttached) {
  const fs::path dir = scratch("bad_spec");
  LeasingDaemon daemon(dir);
  WorkerThread worker(daemon.endpoint(), "w");
  daemon.await_workers(1);

  // A spec no worker can run must be refused before it is leased: a
  // worker would throw on it, and its lease would be re-leased until the
  // daemon stops. The wait is bounded so a hang fails here instead.
  Client client = Client::connect(daemon.endpoint());
  bool hung = false;
  const auto refusal = [&](const CampaignSpec& spec) -> std::string {
    auto answer = std::async(std::launch::async, [&client, spec] {
      try {
        (void)client.query(spec);
      } catch (const QueryError& e) {
        return std::string(e.what());
      }
      return std::string("answered without an Error frame");
    });
    if (answer.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
      hung = true;
      daemon.stop();  // the grid fails for want of workers, so get() returns
    }
    return answer.get();
  };
  CampaignSpec bad_app = small_spec(3, 2);
  bad_app.apps = {"no_such_app"};
  const std::string app_error = refusal(bad_app);
  ASSERT_FALSE(hung) << "no answer within 10 s; then: " << app_error;
  EXPECT_NE(app_error.find("unknown app: no_such_app"), std::string::npos)
      << app_error;
  CampaignSpec short_record = small_spec(3, 2);
  short_record.duration_s = 1.0;
  const std::string window_error = refusal(short_record);
  ASSERT_FALSE(hung) << "no answer within 10 s; then: " << window_error;
  EXPECT_NE(window_error.find("holds 250 samples, shorter than its "
                              "2048-sample window"),
            std::string::npos)
      << window_error;

  // The connection and the worker are still good: a valid query runs
  // through the worker.
  const CampaignSpec spec = small_spec(3, 2);
  EXPECT_EQ(as_text(client.query(spec).store_bytes),
            columnar_bytes(spec, dir / "ref.ulpdcol"));
  daemon.stop();
  worker.join();
  EXPECT_EQ(worker.error(), "");
  EXPECT_EQ(worker.report().items_executed, spec.item_count());
}

TEST(LeasedDaemon, ClientDeathMidLeasedQueryCachesNothing) {
  const fs::path dir = scratch("client_death");
  const CampaignSpec spec = small_spec(47, 6);
  LeasingDaemon daemon(dir);

  Peer peer(daemon.endpoint());
  (void)peer.hello("peer");
  daemon.await_workers(1);
  {
    Socket client = Socket::connect(daemon.endpoint());
    Query query;
    query.spec = spec;
    send(client, query);
    const LeaseGrant grant = peer.lease();  // the grid is executing
    client.close();
    // The query's next Progress frame fails: its grid closes.
    daemon.await([&] {
      return daemon.gauge("serve.clients_connected") == 0.0;
    });
    // A result for the closed grid is acked and dropped.
    EXPECT_EQ(peer.deliver(grant, dir), grant.lease_id);
  }
  EXPECT_EQ(daemon.counter("serve.shards_ingested"), 0u);
  EXPECT_EQ(daemon.daemon().cache().entries(), 0u);
  EXPECT_TRUE(fs::is_empty(dir / "cache" / "spool"));
  send(peer.socket(), Goodbye{});
}

}  // namespace
}  // namespace ulpdream::serve
