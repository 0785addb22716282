#pragma once
// Wire protocol of the campaign daemon — the typed message layer over
// util::Frame (ULPDFRM1 framing, util/socket.hpp) and the payload codec
// (util/wire.hpp). A connection's first frame says who is calling: a
// Hello makes it a worker, anything else a client.
//
//   client                          daemon
//   ------                          ------
//   Query{version, spec, wants} ->
//                                <- Progress{items_done, items_total}
//                                   (streamed while the grid executes;
//                                    none for an exact cache hit)
//                                <- Result{status, counts, store, rows}
//                                   or Error{message}, connection kept
//   ... more Queries ...
//   close                           (no goodbye frame)
//
//   worker                          daemon
//   ------                          ------
//   Hello{version, worker_name} ->
//                                <- HelloOk{heartbeat_ms}
//                                   (or HelloReject{reason} quoting both
//                                    versions, then close)
//   LeaseRequest{}              ->
//                                <- LeaseGrant{id, spec, [begin, end)}
//                                   or NoWork{done | retry_ms}
//   Heartbeat{id}               ->  (while executing; renews the lease)
//                                <- HeartbeatAck{id}
//   LeaseResult{id, columnar}   ->
//                                <- ResultAck{id}
//   ... more LeaseRequests ...
//   Metrics{snapshot json}      ->  (once, after NoWork{done})
//   Goodbye{}                   ->  close
//
// Exactly-once is NOT promised: a lease can expire and be re-granted
// while the original worker still finishes it, so the same item range
// may be ingested twice; ColumnarStore::append_merge dedups
// (first-done-wins). The spec codec is shared by Query, LeaseGrant and
// the cache's sidecar files. A decode failure throws ProtocolError
// naming the peer and the field — distinct from util::FrameError, so
// logs tell "peer sent a truncated LeaseGrant" from "peer is not
// speaking frames at all".

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ulpdream/campaign/result_store.hpp"
#include "ulpdream/campaign/spec.hpp"
#include "ulpdream/util/socket.hpp"
#include "ulpdream/util/wire.hpp"

namespace ulpdream::serve {

/// Bump on any wire-visible change; Hello and Query carry it and the
/// daemon rejects a mismatch quoting both numbers.
inline constexpr std::uint32_t kProtocolVersion = 2;

/// Default cap on a frame payload. Results and lease results carry whole
/// columnar stores, so this bounds store size, not chat traffic.
inline constexpr std::size_t kMaxFrameBytes = std::size_t(256) << 20;

/// Typed payload-decode failure naming the peer (transport failures are
/// util::FrameError; this layer means the frame arrived but lied).
using ProtocolError = util::WireError;

enum class MsgType : std::uint32_t {
  // Worker conversation.
  kHello = 1,
  kHelloOk = 2,
  kHelloReject = 3,
  kLeaseRequest = 4,
  kLeaseGrant = 5,
  kNoWork = 6,
  kLeaseResult = 7,
  kResultAck = 8,
  kHeartbeat = 9,
  kHeartbeatAck = 10,
  kMetrics = 11,
  kGoodbye = 12,
  // Client conversation.
  kQuery = 32,
  kResult = 33,
  kProgress = 34,
  kError = 35,
};

[[nodiscard]] const char* to_string(MsgType type) noexcept;

/// How the daemon answered: straight from the mapped cache (kHit), by
/// running only the items a cached overlapping store was missing
/// (kGapFill), or by executing the whole grid (kCold).
enum class CacheStatus : std::uint8_t {
  kCold = 0,
  kHit = 1,
  kGapFill = 2,
};

[[nodiscard]] const char* to_string(CacheStatus status) noexcept;

struct Hello {
  std::uint32_t version = kProtocolVersion;
  std::string worker_name;  ///< human label for logs/telemetry
};

struct HelloOk {
  std::uint64_t heartbeat_ms = 0;  ///< poll and renew at least this often
};

struct HelloReject {
  std::string reason;  ///< quotes both versions
};

struct LeaseRequest {};

struct LeaseGrant {
  std::uint64_t lease_id = 0;
  campaign::CampaignSpec spec;  ///< the grid the range belongs to
  std::uint64_t begin = 0;      ///< canonical item range [begin, end)
  std::uint64_t end = 0;
};

struct NoWork {
  /// True: the daemon is stopping — ship Metrics and say Goodbye.
  /// False: nothing to lease right now; ask again in retry_ms.
  bool done = false;
  std::uint64_t retry_ms = 0;
};

struct LeaseResult {
  std::uint64_t lease_id = 0;
  /// A complete columnar store file (ULPDCOL1 bytes) holding exactly the
  /// lease's items — the daemon spools and append-merges it.
  std::vector<std::uint8_t> store_bytes;
};

struct ResultAck {
  std::uint64_t lease_id = 0;
};

struct Heartbeat {
  std::uint64_t lease_id = 0;
};

struct HeartbeatAck {
  std::uint64_t lease_id = 0;
};

struct Metrics {
  std::string json;  ///< util::telemetry::MetricsSnapshot::write_json
};

struct Goodbye {};

struct Query {
  std::uint32_t version = kProtocolVersion;
  campaign::CampaignSpec spec;
  bool want_store = true;  ///< return the columnar store bytes
  bool want_rows = false;  ///< return aggregate rows as CSV text
  campaign::GroupBy group{};  ///< grouping for want_rows
};

struct Result {
  CacheStatus status = CacheStatus::kCold;
  std::uint64_t items_total = 0;     ///< grid size of the queried spec
  std::uint64_t items_executed = 0;  ///< items actually run (0 on a hit)
  /// Complete columnar store (ULPDCOL1 bytes) of the queried grid, when
  /// want_store — byte-identical to a single-process `campaign` save of
  /// the same spec.
  std::vector<std::uint8_t> store_bytes;
  /// Aggregate rows as CSV (write_rows_csv bytes), when want_rows.
  std::string rows_csv;
};

struct Progress {
  std::uint64_t items_done = 0;
  std::uint64_t items_total = 0;
};

struct Error {
  std::string message;
};

// ---------------------------------------------------------------------------
// Spec codec — shared by Query, LeaseGrant and the cache sidecar files.

void encode_spec(util::PayloadWriter& w, const campaign::CampaignSpec& spec);
/// Decodes the field block encode_spec wrote. Unknown pathology names
/// throw std::invalid_argument listing the valid set (same behaviour as
/// the CLI's axis parsers).
[[nodiscard]] campaign::CampaignSpec decode_spec(util::PayloadReader& r);

/// GroupBy <-> wire bit mask (bit 0 record, 1 app, 2 emt, 3 voltage).
[[nodiscard]] std::uint8_t group_mask(const campaign::GroupBy& group) noexcept;
[[nodiscard]] campaign::GroupBy group_from_mask(std::uint8_t mask) noexcept;

// ---------------------------------------------------------------------------
// Send / receive. send() encodes and writes one frame; decode_*() checks
// the frame's type, bounds-checks every field and rejects trailing
// bytes, so a garbage or truncated payload throws ProtocolError naming
// the peer, the message and the field — never reads past the buffer.

void send(util::Socket& socket, const Hello& m);
void send(util::Socket& socket, const HelloOk& m);
void send(util::Socket& socket, const HelloReject& m);
void send(util::Socket& socket, const LeaseRequest& m);
void send(util::Socket& socket, const LeaseGrant& m);
void send(util::Socket& socket, const NoWork& m);
void send(util::Socket& socket, const LeaseResult& m);
void send(util::Socket& socket, const ResultAck& m);
void send(util::Socket& socket, const Heartbeat& m);
void send(util::Socket& socket, const HeartbeatAck& m);
void send(util::Socket& socket, const Metrics& m);
void send(util::Socket& socket, const Goodbye& m);
void send(util::Socket& socket, const Query& m);
void send(util::Socket& socket, const Result& m);
void send(util::Socket& socket, const Progress& m);
void send(util::Socket& socket, const Error& m);

/// Hello and Query decode their version first and stop there when it is
/// not kProtocolVersion: the rest of a foreign version's payload is not
/// ours to parse, and the caller rejects by number.
[[nodiscard]] Hello decode_hello(const util::Frame& frame,
                                 const std::string& peer);
[[nodiscard]] HelloOk decode_hello_ok(const util::Frame& frame,
                                      const std::string& peer);
[[nodiscard]] HelloReject decode_hello_reject(const util::Frame& frame,
                                              const std::string& peer);
[[nodiscard]] LeaseGrant decode_lease_grant(const util::Frame& frame,
                                            const std::string& peer);
[[nodiscard]] NoWork decode_no_work(const util::Frame& frame,
                                    const std::string& peer);
[[nodiscard]] LeaseResult decode_lease_result(const util::Frame& frame,
                                              const std::string& peer);
[[nodiscard]] ResultAck decode_result_ack(const util::Frame& frame,
                                          const std::string& peer);
[[nodiscard]] Heartbeat decode_heartbeat(const util::Frame& frame,
                                         const std::string& peer);
[[nodiscard]] HeartbeatAck decode_heartbeat_ack(const util::Frame& frame,
                                                const std::string& peer);
[[nodiscard]] Metrics decode_metrics(const util::Frame& frame,
                                     const std::string& peer);
[[nodiscard]] Query decode_query(const util::Frame& frame,
                                 const std::string& peer);
[[nodiscard]] Result decode_result(const util::Frame& frame,
                                   const std::string& peer);
[[nodiscard]] Progress decode_progress(const util::Frame& frame,
                                       const std::string& peer);
[[nodiscard]] Error decode_error(const util::Frame& frame,
                                 const std::string& peer);

/// Reads the next frame (false on clean EOF between frames). Wire-level
/// failures surface as util::FrameError.
[[nodiscard]] bool receive(util::Socket& socket, util::Frame& out,
                           std::size_t max_payload = kMaxFrameBytes);

}  // namespace ulpdream::serve
