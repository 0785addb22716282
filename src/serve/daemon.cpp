#include "ulpdream/serve/daemon.hpp"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>
#include <vector>

#include "ulpdream/campaign/columnar.hpp"
#include "ulpdream/util/file_view.hpp"
#include "ulpdream/util/log.hpp"

namespace ulpdream::serve {

namespace fs = std::filesystem;
namespace telemetry = util::telemetry;

/// One grid executing as leases on the attached workers.
struct Daemon::Grid {
  campaign::CampaignSpec spec;
  LeaseTable table;
  std::vector<std::string> shards;  ///< spooled shard files, ingest order
};

namespace {

/// Pause after a failed accept or thread spawn: the pending connection
/// waits in the backlog until a handler frees its descriptor.
constexpr int kAcceptBackoffMs = 100;

const telemetry::Counter& errors() {
  static const telemetry::Counter c("serve.errors");
  return c;
}

Daemon::Options validated(Daemon::Options options) {
  if (options.heartbeat_ms >= options.lease_ttl_ms) {
    throw std::invalid_argument(
        "heartbeat_ms (" + std::to_string(options.heartbeat_ms) +
        ") must be below lease_ttl_ms (" +
        std::to_string(options.lease_ttl_ms) +
        "): idle workers poll every heartbeat_ms, and a worker silent for "
        "2 x lease_ttl_ms is dropped");
  }
  return options;
}

/// Fills `result` from a published cache entry. Callers hold the daemon
/// mutex, so a concurrent insert's eviction sweep cannot unlink the file
/// mid-read.
void fill_answer(Result& result, const Query& query,
                 const ResultCache::Entry& entry) {
  if (query.want_store) {
    result.store_bytes = util::read_file(entry.store_path);
  }
  if (query.want_rows) {
    const auto store =
        campaign::ColumnarStore::open(entry.store_path, entry.spec);
    std::ostringstream os;
    campaign::write_rows_csv(os, store.aggregate(query.group));
    result.rows_csv = os.str();
  }
}

void remove_files(const std::vector<std::string>& paths) {
  std::error_code ec;
  for (const std::string& path : paths) fs::remove(path, ec);
}

}  // namespace

Daemon::Daemon(Options options)
    : options_(validated(std::move(options))),
      session_(energy::SystemEnergyModel(), options_.threads),
      cache_(ResultCache::Options{options_.cache_dir,
                                  options_.cache_budget_bytes}),
      spool_dir_((fs::path(options_.cache_dir) / "spool").string()),
      listener_(util::Listener::open(options_.listen)) {
  // Shards of grids a previous process never finished are orphans.
  fs::remove_all(spool_dir_);
  fs::create_directories(spool_dir_);
  int fds[2];
  if (::pipe(fds) != 0) {
    throw util::SocketError(options_.listen,
                            std::string("pipe: ") + std::strerror(errno));
  }
  stop_rd_ = fds[0];
  stop_wr_ = fds[1];
}

Daemon::~Daemon() {
  // run() leaves no handler behind; this covers a run() that threw, so
  // no path destroys a joinable thread.
  stopping_.store(true);
  join_all();
  if (stop_rd_ >= 0) (void)::close(stop_rd_);
  if (stop_wr_ >= 0) (void)::close(stop_wr_);
}

void Daemon::request_stop() noexcept {
  if (stop_wr_ >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(stop_wr_, &byte, 1);
  }
}

telemetry::MetricsSnapshot Daemon::telemetry() const {
  std::lock_guard lock(mutex_);
  telemetry::MetricsSnapshot out = worker_metrics_;
  out.merge(session_.telemetry());  // the daemon's own gauges win
  return out;
}

Daemon::Report Daemon::run() {
  static const telemetry::Counter accept_errors("serve.accept_errors");
  util::log_info("serve: daemon listening on ", listener_.endpoint(),
                 " (cache ", cache_.dir(), ": ", cache_.entries(),
                 " entries, ", cache_.bytes(), " bytes rehydrated)");
  bool backoff = false;
  for (;;) {
    reap_finished();
    pollfd fds[2];
    fds[0] = pollfd{stop_rd_, POLLIN, 0};
    fds[1] = pollfd{listener_.fd(), POLLIN, 0};
    // After a failed accept, sit out the back-off watching only the stop
    // pipe: the listener stays readable while the backlog is non-empty.
    const int rc =
        ::poll(fds, backoff ? 1 : 2, backoff ? kAcceptBackoffMs : -1);
    backoff = false;
    if (rc < 0) {
      backoff = errno != EINTR;
      continue;
    }
    if ((fds[0].revents & POLLIN) != 0) break;
    if ((fds[1].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
    try {
      accept_one();
    } catch (const std::exception& e) {
      accept_errors.add();
      util::log_warn("serve: ", e.what());
      backoff = true;
    }
  }

  // Drain, 1: no new connections; idle clients and connections that
  // have not spoken yet wake to EOF.
  stopping_.store(true);
  listener_.close();
  std::vector<Conn*> clients;
  {
    std::lock_guard lock(mutex_);
    for (Conn& conn : conns_) {
      if (conn.worker) continue;
      if (!conn.busy.load()) conn.socket.shutdown();
      clients.push_back(&conn);
    }
  }
  cv_.notify_all();
  // 2: in-flight queries finish, on the workers still attached.
  for (Conn* conn : clients) conn->thread.join();
  {
    // 3: workers get NoWork{done}, ship their metrics and say Goodbye;
    // 4: stragglers are cut off.
    std::unique_lock lock(mutex_);
    release_workers_ = true;
    cv_.wait_for(lock, std::chrono::milliseconds(4 * options_.heartbeat_ms),
                 [this] { return workers_ == 0; });
  }
  join_all();
  util::log_info("serve: daemon drained (", report_.queries, " queries, ",
                 report_.cache_hits, " hits, ", report_.gap_fills,
                 " gap-fills, ", report_.cold_runs, " cold, ",
                 report_.workers, " workers)");
  std::lock_guard lock(mutex_);
  return report_;
}

void Daemon::accept_one() {
  util::Socket socket = listener_.accept();
  std::lock_guard lock(mutex_);
  Conn& conn = conns_.emplace_back();
  conn.socket = std::move(socket);
  try {
    conn.thread = std::thread([this, &conn] { handle_connection(conn); });
  } catch (const std::system_error& e) {
    conns_.pop_back();  // closes the socket; the client sees EOF
    throw std::runtime_error(std::string("handler thread: ") + e.what());
  }
}

void Daemon::join_all() {
  {
    std::lock_guard lock(mutex_);
    for (Conn& conn : conns_) conn.socket.shutdown();
  }
  cv_.notify_all();
  for (Conn& conn : conns_) {
    if (conn.thread.joinable()) conn.thread.join();
  }
  conns_.clear();
}

void Daemon::reap_finished() {
  std::lock_guard lock(mutex_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->finished.load()) {
      it->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void Daemon::handle_connection(Conn& conn) {
  try {
    util::Frame frame;
    if (receive(conn.socket, frame, options_.max_frame_bytes)) {
      if (frame.type == static_cast<std::uint32_t>(MsgType::kHello)) {
        serve_worker(conn, frame);
      } else {
        serve_client(conn, frame);
      }
    }
  } catch (const std::exception& e) {
    util::log_warn("serve: ", conn.socket.peer(), ": ", e.what());
  }
  {
    // The drain shuts sockets down under mutex_; closing under it too
    // keeps that shutdown off a descriptor number already closed here
    // and reused.
    std::lock_guard lock(mutex_);
    conn.socket.close();
  }
  conn.finished.store(true);
}

void Daemon::serve_client(Conn& conn, util::Frame& frame) {
  static const telemetry::Gauge connected("serve.clients_connected");
  {
    std::lock_guard lock(mutex_);
    report_.clients += 1;
  }
  connected.set(++clients_connected_);
  const auto fail = [this, &conn](const std::string& message) {
    errors().add();
    {
      std::lock_guard lock(mutex_);
      report_.errors += 1;
    }
    send(conn.socket, Error{message});
  };
  try {
    do {
      Query query;
      try {
        query = decode_query(frame, conn.socket.peer());
      } catch (const ProtocolError& e) {
        // Payload garbage: tell the peer why, then hang up — a client
        // that cannot frame a Query will not frame the next one either.
        fail(e.what());
        break;
      }
      if (query.version != kProtocolVersion) {
        fail("protocol version mismatch: daemon speaks " +
             std::to_string(kProtocolVersion) + ", client sent " +
             std::to_string(query.version));
        continue;
      }
      conn.busy.store(true);
      try {
        send(conn.socket, answer(query, conn));
      } catch (const util::SocketError&) {
        throw;  // the client died mid-query; its grid is already cancelled
      } catch (const std::exception& e) {
        // Query-level failure (unknown axis name, bad spec, store I/O):
        // answer with the reason and keep the connection — the client
        // may fix the spec and retry.
        fail(e.what());
      }
      conn.busy.store(false);
      if (stopping_.load()) break;
    } while (receive(conn.socket, frame, options_.max_frame_bytes));
  } catch (const std::exception& e) {
    util::log_warn("serve: client ", conn.socket.peer(), ": ", e.what());
  }
  connected.set(--clients_connected_);
}

/// The worker conversation: HELLO handshake, then the worker's
/// request/response loop until Goodbye, EOF, or a transport/protocol
/// failure — every exit path revokes the worker's leases on every grid.
void Daemon::serve_worker(Conn& conn, const util::Frame& hello_frame) {
  static const telemetry::Gauge attached("serve.workers_attached");
  static const telemetry::Counter revoked("serve.leases_revoked");
  const std::string peer = conn.socket.peer();
  const Hello hello = decode_hello(hello_frame, peer);
  if (hello.version != kProtocolVersion) {
    errors().add();
    send(conn.socket,
         HelloReject{"protocol version mismatch: daemon speaks " +
                     std::to_string(kProtocolVersion) + ", worker sent " +
                     std::to_string(hello.version)});
    return;
  }
  std::string owner;
  {
    std::lock_guard lock(mutex_);
    conn.worker = true;
    report_.workers += 1;
    // Unique per connection: Unix-socket peers all share one name.
    owner = hello.worker_name + "#" + std::to_string(report_.workers) +
            "@" + peer;
    attached.set(static_cast<double>(++workers_));
  }
  util::log_info("serve: worker ", owner, " attached");
  try {
    // A worker silent for longer than the TTL is not heartbeating its
    // leases; time the read out so the handler revokes and exits instead
    // of blocking forever on a wedged connection.
    conn.socket.set_recv_timeout(options_.lease_ttl_ms * 2);
    send(conn.socket, HelloOk{options_.heartbeat_ms});
    util::Frame frame;
    bool open = true;
    while (open && receive(conn.socket, frame, options_.max_frame_bytes)) {
      switch (static_cast<MsgType>(frame.type)) {
        case MsgType::kLeaseRequest:
          grant_lease(conn.socket, owner);
          break;
        case MsgType::kHeartbeat: {
          const Heartbeat beat = decode_heartbeat(frame, peer);
          {
            std::lock_guard lock(mutex_);
            if (const auto it = leases_.find(beat.lease_id);
                it != leases_.end()) {
              (void)it->second.grid->table.renew(it->second.table_id,
                                                 LeaseTable::Clock::now());
            }
          }
          send(conn.socket, HeartbeatAck{beat.lease_id});
          break;
        }
        case MsgType::kLeaseResult: {
          const LeaseResult result = decode_lease_result(frame, peer);
          ingest(result);
          send(conn.socket, ResultAck{result.lease_id});
          break;
        }
        case MsgType::kMetrics: {
          std::istringstream is(decode_metrics(frame, peer).json);
          const auto snapshot = telemetry::MetricsSnapshot::read_json(is);
          std::lock_guard lock(mutex_);
          worker_metrics_.merge(snapshot);
          break;
        }
        case MsgType::kGoodbye:
          open = false;
          break;
        default:
          throw ProtocolError(
              peer, std::string("unexpected ") +
                        to_string(static_cast<MsgType>(frame.type)) +
                        " frame (type " + std::to_string(frame.type) +
                        ") from a worker");
      }
    }
  } catch (const std::exception& e) {
    util::log_warn("serve: worker ", owner, " failed: ", e.what());
  }

  std::lock_guard lock(mutex_);
  for (const auto& grid : grids_) {
    for (const auto& lease : grid->table.revoke_owner(owner)) {
      revoked.add();
      util::log_warn("serve: worker ", owner, " left holding [",
                     lease.begin, ", ", lease.end, "); re-leasing");
    }
  }
  attached.set(static_cast<double>(--workers_));
  cv_.notify_all();
}

void Daemon::grant_lease(util::Socket& socket, const std::string& owner) {
  static const telemetry::Counter granted("serve.leases_granted");
  LeaseGrant grant;
  bool done = false;
  {
    std::lock_guard lock(mutex_);
    const auto now = LeaseTable::Clock::now();
    for (const auto& grid : grids_) {  // oldest grid with pending work
      LeaseTable::Lease lease;
      if (!grid->table.grant(owner, now, lease)) continue;
      grant = LeaseGrant{next_lease_id_++, grid->spec, lease.begin,
                         lease.end};
      leases_.emplace(grant.lease_id,
                      WireLease{grid, lease.id, lease.begin, lease.end});
      break;
    }
    done = release_workers_;
  }
  if (grant.lease_id == 0) {
    send(socket, NoWork{done, options_.heartbeat_ms});
    return;
  }
  granted.add();
  send(socket, grant);
}

void Daemon::ingest(const LeaseResult& result) {
  static const telemetry::Counter shards("serve.shards_ingested");
  static const telemetry::Counter bytes("serve.ingest_bytes");
  static const telemetry::Counter stale("serve.stale_results");
  std::shared_ptr<Grid> grid;
  {
    std::lock_guard lock(mutex_);
    if (const auto it = leases_.find(result.lease_id); it != leases_.end()) {
      grid = it->second.grid;
    }
  }
  if (!grid) return;  // its grid finished or was cancelled: moot

  // Spool to disk outside the lock: the daemon holds at most one shard
  // payload per worker connection at a time. The spool is scratch (a
  // restart empties it), so no staged publish is needed.
  const std::string path =
      spool_dir_ + "/lease_" + std::to_string(result.lease_id) + ".ulpdcol";
  try {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(result.store_bytes.data()),
             static_cast<std::streamsize>(result.store_bytes.size()));
    os.close();
    if (!os) throw campaign::StoreError(path, "cannot spool shard");
    // A corrupt payload must not mark items done.
    (void)campaign::ColumnarStore::open(path, grid->spec);
  } catch (...) {
    remove_files({path});
    throw;
  }

  std::lock_guard lock(mutex_);
  const auto it = leases_.find(result.lease_id);
  if (it == leases_.end()) {  // the grid closed while this spooled
    remove_files({path});
    return;
  }
  grid->shards.push_back(path);
  shards.add();
  bytes.add(result.store_bytes.size());
  if (!grid->table.complete(it->second.table_id)) {
    // The lease expired (and its range was re-granted) before this
    // worker finished. The work is valid all the same: credit the range;
    // append_merge dedups any overlap first-done-wins.
    stale.add();
    grid->table.complete_range(it->second.begin, it->second.end);
  }
  if (grid->table.all_done()) cv_.notify_all();
}

void Daemon::close_grid(const std::shared_ptr<Grid>& grid) {
  grids_.remove(grid);
  std::erase_if(leases_,
                [&grid](const auto& kv) { return kv.second.grid == grid; });
}

Result Daemon::answer(const Query& query, Conn& conn) {
  static const telemetry::Counter queries("serve.queries");
  static const telemetry::Histogram hit_ns("serve.query.hit_ns");
  static const telemetry::Histogram cold_ns("serve.query.cold_ns");
  static const telemetry::Histogram gap_ns("serve.query.gapfill_ns");
  static const telemetry::Counter gap_executed(
      "serve.gapfill.items_executed");
  static const telemetry::Counter gap_reused("serve.gapfill.items_reused");
  queries.add();
  {
    std::lock_guard lock(mutex_);
    report_.queries += 1;
  }
  const std::uint64_t t0 = telemetry::now_ns();

  const campaign::CampaignSpec spec = query.spec.normalized();
  const std::string fingerprint = spec.fingerprint();
  Result result;
  result.items_total = spec.item_count();

  // 1. Exact hit: answer from the published cache file; nothing runs.
  {
    std::unique_lock lock(mutex_);
    if (const auto hit = cache_.find(fingerprint)) {
      result.status = CacheStatus::kHit;
      fill_answer(result, query, *hit);
      report_.cache_hits += 1;
      report_.items_reused += spec.item_count();
      lock.unlock();
      hit_ns.record(telemetry::now_ns() - t0);
      return result;
    }
  }

  // 2. Overlap gap-fill: adopt the nearest same-family cached store as
  // the grid's leading items (read under the lock so eviction cannot
  // unlink the donor mid-read). 3. Otherwise cold.
  campaign::ResultStore adopted;
  bool have_donor = false;
  bool leased = false;
  {
    std::lock_guard lock(mutex_);
    if (const auto donor = cache_.best_overlap(spec)) {
      adopted = adopt_prefix(
          campaign::ColumnarStore::open(donor->store_path, donor->spec),
          spec);
      have_donor = true;
    }
    leased = workers_ != 0;
  }
  const std::size_t reused = have_donor ? adopted.items_done() : 0;
  campaign::ResultStore store;
  std::string merged;
  if (leased) {
    merged = execute_leased(spec, adopted, conn);
  } else {
    store = execute_local(spec, have_donor ? &adopted : nullptr, conn);
  }
  result.items_executed = spec.item_count() - reused;
  result.status = have_donor ? CacheStatus::kGapFill : CacheStatus::kCold;

  // Publish to the cache, then answer from the published file — what
  // the client gets is bit-identical to what the next hit will serve
  // (and to a single-process `campaign` save of this grid).
  {
    std::lock_guard lock(mutex_);
    fill_answer(result, query,
                leased ? cache_.adopt(spec, merged)
                       : cache_.insert(spec, store));
    report_.items_executed += result.items_executed;
    if (have_donor) {
      report_.gap_fills += 1;
      report_.items_reused += reused;
      gap_executed.add(result.items_executed);
      gap_reused.add(reused);
    } else {
      report_.cold_runs += 1;
    }
  }
  (have_donor ? gap_ns : cold_ns).record(telemetry::now_ns() - t0);
  return result;
}

campaign::ResultStore Daemon::execute_local(
    const campaign::CampaignSpec& spec, const campaign::ResultStore* resume,
    Conn& conn) {
  campaign::SubmitOptions submit_options;
  submit_options.resume_from = resume;
  const campaign::CampaignHandle handle =
      session_.submit(spec, submit_options);
  try {
    for (;;) {
      const campaign::Progress progress = handle.progress();
      send(conn.socket, Progress{progress.items_done, progress.items_total});
      if (progress.finished) break;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.progress_every_ms));
    }
  } catch (...) {
    // The client died mid-execution: stop burning the pool on an answer
    // nobody will read (unclaimed items never start; the partial result
    // is discarded, not cached).
    handle.cancel();
    throw;
  }
  return handle.take();
}

std::string Daemon::execute_leased(const campaign::CampaignSpec& spec,
                                   const campaign::ResultStore& adopted,
                                   Conn& conn) {
  static const telemetry::Counter expired("serve.leases_expired");
  const auto grid = std::make_shared<Grid>(
      spec, LeaseTable(spec.item_count(), options_.lease_items,
                       std::chrono::milliseconds(options_.lease_ttl_ms)));
  const std::string base =
      spool_dir_ + "/grid_" + std::to_string(next_grid_id_++);
  std::unique_lock lock(mutex_, std::defer_lock);
  std::string merged;
  try {
    if (adopted.items_done() != 0) {
      // The donor holds the grid's leading items [0, k) — records are
      // the outermost axis — so it is the grid's first shard and only
      // the gap is leased.
      grid->shards.push_back(base + ".prefix.ulpdcol");
      adopted.save_columnar(grid->shards.back());
      grid->table.complete_range(0, adopted.items_done());
    }
    lock.lock();
    grids_.push_back(grid);
    for (;;) {
      for (const auto& lease :
           grid->table.expire_due(LeaseTable::Clock::now())) {
        expired.add();
        util::log_warn("serve: lease [", lease.begin, ", ", lease.end,
                       ") of ", lease.owner, " expired; re-leasing");
      }
      const Progress progress{grid->table.items_done(),
                              grid->table.item_count()};
      const bool finished = grid->table.all_done();
      if (!finished && stopping_.load() && workers_ == 0) {
        throw std::runtime_error(
            "daemon stopping with no worker attached to finish the grid (" +
            std::to_string(progress.items_done) + " of " +
            std::to_string(progress.items_total) + " items done)");
      }
      lock.unlock();
      send(conn.socket, progress);
      if (finished) break;
      lock.lock();
      cv_.wait_for(lock, std::chrono::milliseconds(options_.progress_every_ms));
    }
    lock.lock();
    close_grid(grid);
    lock.unlock();
    // The proof obligation: the append-merge of the shards is
    // byte-identical to a single-process save_columnar of this grid.
    merged = base + ".ulpdcol";
    campaign::ColumnarStore::append_merge(grid->shards, merged, spec);
  } catch (...) {
    // The client died, the daemon is stopping without workers, or the
    // merge failed: close the grid (later results are acked and
    // dropped) and delete its shards — nothing is cached.
    if (!lock.owns_lock()) lock.lock();
    close_grid(grid);
    lock.unlock();
    remove_files(grid->shards);
    throw;
  }
  remove_files(grid->shards);
  return merged;
}

}  // namespace ulpdream::serve
