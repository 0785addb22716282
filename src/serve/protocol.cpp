#include "ulpdream/serve/protocol.hpp"

#include "ulpdream/ecg/generator.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace ulpdream::serve {

namespace {

using util::PayloadReader;
using util::PayloadWriter;

void send_frame(util::Socket& socket, MsgType type,
                const PayloadWriter& payload) {
  static const util::telemetry::Counter frames("serve.frames_sent");
  static const util::telemetry::Counter bytes("serve.frames_sent_bytes");
  util::write_frame(socket, static_cast<std::uint32_t>(type),
                    payload.bytes());
  frames.add();
  bytes.add(util::kFrameHeaderBytes + payload.bytes().size());
}

/// Opens a reader after asserting the frame really is `type` — decoding
/// a LeaseGrant out of a Metrics frame must fail by name, not by field.
PayloadReader open(const util::Frame& frame, const std::string& peer,
                   MsgType type) {
  if (frame.type != static_cast<std::uint32_t>(type)) {
    throw ProtocolError(
        peer, std::string("expected ") + to_string(type) + " frame, got " +
                  to_string(static_cast<MsgType>(frame.type)) + " (type " +
                  std::to_string(frame.type) + ")");
  }
  return PayloadReader(frame.payload, peer, to_string(type));
}

// One-field messages (HelloOk, the lease-id echoes, HelloReject,
// Metrics, Error) share these.

void send_u64(util::Socket& socket, MsgType type, std::uint64_t v) {
  PayloadWriter w;
  w.put_u64(v);
  send_frame(socket, type, w);
}

void send_string(util::Socket& socket, MsgType type, const std::string& v) {
  PayloadWriter w;
  w.put_string(v);
  send_frame(socket, type, w);
}

std::uint64_t decode_u64(const util::Frame& frame, const std::string& peer,
                         MsgType type, const char* field) {
  PayloadReader r = open(frame, peer, type);
  const std::uint64_t v = r.get_u64(field);
  r.finish();
  return v;
}

std::string decode_string(const util::Frame& frame, const std::string& peer,
                          MsgType type, const char* field) {
  PayloadReader r = open(frame, peer, type);
  std::string v = r.get_string(field);
  r.finish();
  return v;
}

}  // namespace

const char* to_string(MsgType type) noexcept {
  switch (type) {
    case MsgType::kHello: return "Hello";
    case MsgType::kHelloOk: return "HelloOk";
    case MsgType::kHelloReject: return "HelloReject";
    case MsgType::kLeaseRequest: return "LeaseRequest";
    case MsgType::kLeaseGrant: return "LeaseGrant";
    case MsgType::kNoWork: return "NoWork";
    case MsgType::kLeaseResult: return "LeaseResult";
    case MsgType::kResultAck: return "ResultAck";
    case MsgType::kHeartbeat: return "Heartbeat";
    case MsgType::kHeartbeatAck: return "HeartbeatAck";
    case MsgType::kMetrics: return "Metrics";
    case MsgType::kGoodbye: return "Goodbye";
    case MsgType::kQuery: return "Query";
    case MsgType::kResult: return "Result";
    case MsgType::kProgress: return "Progress";
    case MsgType::kError: return "Error";
  }
  return "unknown";
}

const char* to_string(CacheStatus status) noexcept {
  switch (status) {
    case CacheStatus::kCold: return "cold";
    case CacheStatus::kHit: return "hit";
    case CacheStatus::kGapFill: return "gap-fill";
  }
  return "unknown";
}

void encode_spec(util::PayloadWriter& w, const campaign::CampaignSpec& spec) {
  w.put_u32(static_cast<std::uint32_t>(spec.apps.size()));
  for (const auto& a : spec.apps) w.put_string(a);
  w.put_u32(static_cast<std::uint32_t>(spec.emts.size()));
  for (const auto& e : spec.emts) w.put_string(e);
  w.put_u32(static_cast<std::uint32_t>(spec.voltages.size()));
  for (const double v : spec.voltages) w.put_f64(v);
  w.put_u32(static_cast<std::uint32_t>(spec.records.size()));
  for (const auto& r : spec.records) {
    w.put_string(std::string(ecg::pathology_name(r.pathology)));
    w.put_f64(r.noise_scale);
    w.put_u64(r.seed);
  }
  w.put_u64(spec.repetitions);
  w.put_u64(spec.seed);
  w.put_string(spec.ber_model);
  w.put_f64(spec.fs_hz);
  w.put_f64(spec.duration_s);
}

campaign::CampaignSpec decode_spec(util::PayloadReader& r) {
  campaign::CampaignSpec spec;
  const std::uint32_t n_apps = r.get_u32("n_apps");
  for (std::uint32_t i = 0; i < n_apps; ++i) {
    spec.apps.push_back(r.get_string("app"));
  }
  const std::uint32_t n_emts = r.get_u32("n_emts");
  for (std::uint32_t i = 0; i < n_emts; ++i) {
    spec.emts.push_back(r.get_string("emt"));
  }
  const std::uint32_t n_voltages = r.get_u32("n_voltages");
  for (std::uint32_t i = 0; i < n_voltages; ++i) {
    spec.voltages.push_back(r.get_f64("voltage"));
  }
  const std::uint32_t n_records = r.get_u32("n_records");
  for (std::uint32_t i = 0; i < n_records; ++i) {
    campaign::RecordAxis axis;
    const std::string pathology = r.get_string("pathology");
    axis.pathology = campaign::parse_pathology_list(pathology).front();
    axis.noise_scale = r.get_f64("noise_scale");
    axis.seed = r.get_u64("record_seed");
    spec.records.push_back(axis);
  }
  spec.repetitions = static_cast<std::size_t>(r.get_u64("repetitions"));
  spec.seed = r.get_u64("seed");
  spec.ber_model = r.get_string("ber_model");
  spec.fs_hz = r.get_f64("fs_hz");
  spec.duration_s = r.get_f64("duration_s");
  return spec;
}

std::uint8_t group_mask(const campaign::GroupBy& group) noexcept {
  return static_cast<std::uint8_t>(
      (group.record ? 1u : 0u) | (group.app ? 2u : 0u) |
      (group.emt ? 4u : 0u) | (group.voltage ? 8u : 0u));
}

campaign::GroupBy group_from_mask(std::uint8_t mask) noexcept {
  campaign::GroupBy group;
  group.record = (mask & 1u) != 0;
  group.app = (mask & 2u) != 0;
  group.emt = (mask & 4u) != 0;
  group.voltage = (mask & 8u) != 0;
  return group;
}

void send(util::Socket& socket, const Hello& m) {
  PayloadWriter w;
  w.put_u32(m.version);
  w.put_string(m.worker_name);
  send_frame(socket, MsgType::kHello, w);
}

void send(util::Socket& socket, const HelloOk& m) {
  send_u64(socket, MsgType::kHelloOk, m.heartbeat_ms);
}

void send(util::Socket& socket, const HelloReject& m) {
  send_string(socket, MsgType::kHelloReject, m.reason);
}

void send(util::Socket& socket, const LeaseRequest&) {
  send_frame(socket, MsgType::kLeaseRequest, PayloadWriter());
}

void send(util::Socket& socket, const LeaseGrant& m) {
  PayloadWriter w;
  w.put_u64(m.lease_id);
  encode_spec(w, m.spec);
  w.put_u64(m.begin);
  w.put_u64(m.end);
  send_frame(socket, MsgType::kLeaseGrant, w);
}

void send(util::Socket& socket, const NoWork& m) {
  PayloadWriter w;
  w.put_u8(m.done ? 1 : 0);
  w.put_u64(m.retry_ms);
  send_frame(socket, MsgType::kNoWork, w);
}

void send(util::Socket& socket, const LeaseResult& m) {
  PayloadWriter w;
  w.put_u64(m.lease_id);
  w.put_blob(m.store_bytes);
  send_frame(socket, MsgType::kLeaseResult, w);
}

void send(util::Socket& socket, const ResultAck& m) {
  send_u64(socket, MsgType::kResultAck, m.lease_id);
}

void send(util::Socket& socket, const Heartbeat& m) {
  send_u64(socket, MsgType::kHeartbeat, m.lease_id);
}

void send(util::Socket& socket, const HeartbeatAck& m) {
  send_u64(socket, MsgType::kHeartbeatAck, m.lease_id);
}

void send(util::Socket& socket, const Metrics& m) {
  send_string(socket, MsgType::kMetrics, m.json);
}

void send(util::Socket& socket, const Goodbye&) {
  send_frame(socket, MsgType::kGoodbye, PayloadWriter());
}

void send(util::Socket& socket, const Query& m) {
  PayloadWriter w;
  w.put_u32(m.version);
  encode_spec(w, m.spec);
  w.put_u8(m.want_store ? 1 : 0);
  w.put_u8(m.want_rows ? 1 : 0);
  w.put_u8(group_mask(m.group));
  send_frame(socket, MsgType::kQuery, w);
}

void send(util::Socket& socket, const Result& m) {
  PayloadWriter w;
  w.put_u8(static_cast<std::uint8_t>(m.status));
  w.put_u64(m.items_total);
  w.put_u64(m.items_executed);
  w.put_blob(m.store_bytes);
  w.put_string(m.rows_csv);
  send_frame(socket, MsgType::kResult, w);
}

void send(util::Socket& socket, const Progress& m) {
  PayloadWriter w;
  w.put_u64(m.items_done);
  w.put_u64(m.items_total);
  send_frame(socket, MsgType::kProgress, w);
}

void send(util::Socket& socket, const Error& m) {
  send_string(socket, MsgType::kError, m.message);
}

Hello decode_hello(const util::Frame& frame, const std::string& peer) {
  PayloadReader r = open(frame, peer, MsgType::kHello);
  Hello m;
  m.version = r.get_u32("version");
  if (m.version != kProtocolVersion) return m;
  m.worker_name = r.get_string("worker_name");
  r.finish();
  return m;
}

HelloOk decode_hello_ok(const util::Frame& frame, const std::string& peer) {
  return HelloOk{decode_u64(frame, peer, MsgType::kHelloOk, "heartbeat_ms")};
}

HelloReject decode_hello_reject(const util::Frame& frame,
                                const std::string& peer) {
  return HelloReject{
      decode_string(frame, peer, MsgType::kHelloReject, "reason")};
}

LeaseGrant decode_lease_grant(const util::Frame& frame,
                              const std::string& peer) {
  PayloadReader r = open(frame, peer, MsgType::kLeaseGrant);
  LeaseGrant m;
  m.lease_id = r.get_u64("lease_id");
  m.spec = decode_spec(r);
  m.begin = r.get_u64("begin");
  m.end = r.get_u64("end");
  r.finish();
  if (m.begin >= m.end) {
    throw ProtocolError(peer, "malformed LeaseGrant: empty range [" +
                                  std::to_string(m.begin) + ", " +
                                  std::to_string(m.end) + ")");
  }
  return m;
}

NoWork decode_no_work(const util::Frame& frame, const std::string& peer) {
  PayloadReader r = open(frame, peer, MsgType::kNoWork);
  NoWork m;
  m.done = r.get_u8("done") != 0;
  m.retry_ms = r.get_u64("retry_ms");
  r.finish();
  return m;
}

LeaseResult decode_lease_result(const util::Frame& frame,
                                const std::string& peer) {
  PayloadReader r = open(frame, peer, MsgType::kLeaseResult);
  LeaseResult m;
  m.lease_id = r.get_u64("lease_id");
  m.store_bytes = r.get_blob("store_bytes");
  r.finish();
  return m;
}

ResultAck decode_result_ack(const util::Frame& frame,
                            const std::string& peer) {
  return ResultAck{decode_u64(frame, peer, MsgType::kResultAck, "lease_id")};
}

Heartbeat decode_heartbeat(const util::Frame& frame,
                           const std::string& peer) {
  return Heartbeat{decode_u64(frame, peer, MsgType::kHeartbeat, "lease_id")};
}

HeartbeatAck decode_heartbeat_ack(const util::Frame& frame,
                                  const std::string& peer) {
  return HeartbeatAck{
      decode_u64(frame, peer, MsgType::kHeartbeatAck, "lease_id")};
}

Metrics decode_metrics(const util::Frame& frame, const std::string& peer) {
  return Metrics{decode_string(frame, peer, MsgType::kMetrics, "json")};
}

Query decode_query(const util::Frame& frame, const std::string& peer) {
  PayloadReader r = open(frame, peer, MsgType::kQuery);
  Query m;
  m.version = r.get_u32("version");
  if (m.version != kProtocolVersion) return m;
  m.spec = decode_spec(r);
  m.want_store = r.get_u8("want_store") != 0;
  m.want_rows = r.get_u8("want_rows") != 0;
  m.group = group_from_mask(r.get_u8("group_mask"));
  r.finish();
  return m;
}

Result decode_result(const util::Frame& frame, const std::string& peer) {
  PayloadReader r = open(frame, peer, MsgType::kResult);
  Result m;
  m.status = static_cast<CacheStatus>(r.get_u8("status"));
  m.items_total = r.get_u64("items_total");
  m.items_executed = r.get_u64("items_executed");
  m.store_bytes = r.get_blob("store_bytes");
  m.rows_csv = r.get_string("rows_csv");
  r.finish();
  return m;
}

Progress decode_progress(const util::Frame& frame, const std::string& peer) {
  PayloadReader r = open(frame, peer, MsgType::kProgress);
  Progress m;
  m.items_done = r.get_u64("items_done");
  m.items_total = r.get_u64("items_total");
  r.finish();
  return m;
}

Error decode_error(const util::Frame& frame, const std::string& peer) {
  return Error{decode_string(frame, peer, MsgType::kError, "message")};
}

bool receive(util::Socket& socket, util::Frame& out,
             std::size_t max_payload) {
  static const util::telemetry::Counter frames("serve.frames_received");
  static const util::telemetry::Counter bytes("serve.frames_received_bytes");
  if (!util::read_frame(socket, out, max_payload)) return false;
  frames.add();
  bytes.add(util::kFrameHeaderBytes + out.payload.size());
  return true;
}

}  // namespace ulpdream::serve
