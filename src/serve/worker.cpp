#include "ulpdream/serve/worker.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "ulpdream/campaign/session.hpp"
#include "ulpdream/serve/protocol.hpp"
#include "ulpdream/util/file_view.hpp"
#include "ulpdream/util/log.hpp"
#include "ulpdream/util/telemetry.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace ulpdream::serve {

namespace {

/// The bytes a LeaseResult carries for `store`: its columnar file (the
/// daemon spools them verbatim and opens them like any shard file),
/// staged through a temp file that no other process or call shares, so
/// same-named workers in concurrent processes never touch each other's
/// file.
std::vector<std::uint8_t> lease_store_bytes(const campaign::ResultStore& store,
                                            const std::string& worker_name,
                                            std::uint64_t lease_id) {
  static std::atomic<std::uint64_t> sequence{0};
#if defined(__unix__) || defined(__APPLE__)
  const unsigned long pid = static_cast<unsigned long>(::getpid());
#else
  const unsigned long pid = 0;
#endif
  const std::string tmp =
      (std::filesystem::temp_directory_path() /
       ("ulpd_" + worker_name + "_" + std::to_string(lease_id) + "_" +
        std::to_string(pid) + "_" + std::to_string(sequence++) + ".ulpdcol"))
          .string();
  store.save_columnar(tmp);
  std::vector<std::uint8_t> bytes = util::read_file(tmp);
  std::filesystem::remove(tmp);
  return bytes;
}

}  // namespace

Worker::Report Worker::run() {
  static const util::telemetry::Counter leases_done(
      "serve.worker_leases_completed");
  static const util::telemetry::Counter items_done(
      "serve.worker_items_executed");

  util::Socket socket = util::Socket::connect(options_.connect);
  const std::string peer = socket.peer();
  campaign::Session session(energy::SystemEnergyModel(), options_.threads);

  send(socket, Hello{kProtocolVersion, options_.name});
  util::Frame frame;
  if (!receive(socket, frame)) {
    throw util::SocketError(peer, "daemon closed during handshake");
  }
  if (frame.type == static_cast<std::uint32_t>(MsgType::kHelloReject)) {
    throw std::runtime_error(peer + " rejected worker: " +
                             decode_hello_reject(frame, peer).reason);
  }
  const HelloOk ok = decode_hello_ok(frame, peer);
  const auto heartbeat =
      std::chrono::milliseconds(std::max<std::uint64_t>(1, ok.heartbeat_ms));

  Report report;
  for (;;) {
    send(socket, LeaseRequest{});
    if (!receive(socket, frame)) {
      throw util::SocketError(peer, "daemon closed while leasing");
    }
    if (frame.type == static_cast<std::uint32_t>(MsgType::kNoWork)) {
      const NoWork no_work = decode_no_work(frame, peer);
      if (no_work.done) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::max<std::uint64_t>(1, no_work.retry_ms)));
      continue;
    }
    const LeaseGrant grant = decode_lease_grant(frame, peer);

    campaign::SubmitOptions submit;
    submit.item_range = campaign::ItemRange{
        static_cast<std::size_t>(grant.begin),
        static_cast<std::size_t>(grant.end)};
    auto handle = session.submit(grant.spec, std::move(submit));

    // The pool computes; this thread keeps the lease alive. Renew at
    // half the advertised cadence so one delayed beat cannot lapse it.
    auto next_beat = std::chrono::steady_clock::now() + heartbeat / 2;
    while (!handle.progress().finished) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      if (std::chrono::steady_clock::now() >= next_beat) {
        send(socket, Heartbeat{grant.lease_id});
        if (!receive(socket, frame)) {
          handle.cancel();
          throw util::SocketError(peer, "daemon closed mid-lease");
        }
        (void)decode_heartbeat_ack(frame, peer);
        next_beat = std::chrono::steady_clock::now() + heartbeat / 2;
      }
    }
    const campaign::ResultStore store = handle.take();

    send(socket, LeaseResult{grant.lease_id,
                             lease_store_bytes(store, options_.name,
                                               grant.lease_id)});
    if (!receive(socket, frame)) {
      throw util::SocketError(peer, "daemon closed before ack");
    }
    (void)decode_result_ack(frame, peer);

    ++report.leases_completed;
    report.items_executed += static_cast<std::size_t>(grant.end - grant.begin);
    leases_done.add();
    items_done.add(grant.end - grant.begin);
    util::log_info("serve: worker ", options_.name, " completed lease ",
                   grant.lease_id, " [", grant.begin, ", ", grant.end, ")");
  }

  // The daemon is stopping: ship this session's metrics for its fold,
  // then part cleanly.
  std::ostringstream os;
  session.telemetry().write_json(os);
  send(socket, Metrics{os.str()});
  send(socket, Goodbye{});
  return report;
}

}  // namespace ulpdream::serve
