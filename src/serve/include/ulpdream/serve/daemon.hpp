#pragma once
// The campaign daemon: a long-lived service that keeps a warm
// campaign::Session plus a persistent ResultCache, answers spec queries
// from clients, and leases the grids it must execute to attached workers
// (serve/protocol.hpp). A connection whose first frame is Hello is a
// worker; any other is a client.
//
// Query resolution: an exact fingerprint hit is answered straight from
// the cached columnar file — nothing runs, no Progress frames. Otherwise
// the grid executes, minus the leading items [0, k) the nearest cached
// store of the same axes family supplies (gap-fill; records are the
// outermost axis). It runs on the local Session when no worker is
// attached, else as leases (LeaseTable) on the workers: their shards
// spool under <cache-dir>/spool and append-merge straight
// into the cache entry, so no in-memory store of a leased grid is ever
// built. Every answer is read back from the published cache file —
// byte-identical to what a later hit serves, and to a single-process
// `campaign` save of the grid.
//
// Failures: the executing query's progress loop expires leases not
// renewed within lease_ttl_ms, and a worker's disconnect revokes its
// leases; a stale result is still credited (append_merge dedups the
// overlap), and a result for a finished or cancelled grid is acked and
// dropped. A client that dies mid-query cancels its grid; nothing is
// cached. A failed accept or thread spawn (EMFILE, EAGAIN) is logged,
// counted (serve.accept_errors) and retried after a back-off; finished
// handlers are joined as new connections arrive.
//
// Shutdown: request_stop() is async-signal-safe — wire it to SIGTERM.
// The drain stops accepting and wakes idle clients; in-flight queries
// finish, on the workers still attached (a leased query left with none
// answers an Error); workers then get NoWork{done}, ship their metrics
// (folded into telemetry()) and say Goodbye; after 4 x heartbeat_ms the
// remaining sockets are shut and every handler is joined.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "ulpdream/campaign/session.hpp"
#include "ulpdream/serve/cache.hpp"
#include "ulpdream/serve/lease_table.hpp"
#include "ulpdream/serve/protocol.hpp"
#include "ulpdream/util/socket.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace ulpdream::serve {

class Daemon {
 public:
  struct Options {
    std::string listen;     ///< "host:port" (port 0 = ephemeral) or "unix:/path"
    /// ResultCache directory (required). Its spool/ subdirectory holds
    /// the shards of leased grids and is emptied at startup.
    std::string cache_dir;
    std::uint64_t cache_budget_bytes = std::uint64_t(256) << 20;
    unsigned threads = 0;  ///< session pool size; 0 = hardware_concurrency
    std::size_t max_frame_bytes = kMaxFrameBytes;
    /// Cadence of Progress frames (and lease expiry) while a query
    /// executes.
    std::size_t progress_every_ms = 250;
    /// Items per lease grant (the last grant of a grid may be smaller).
    std::size_t lease_items = 256;
    /// A lease not renewed within this window is re-granted.
    std::size_t lease_ttl_ms = 10'000;
    /// Idle workers poll, and busy ones renew, at this cadence. Must be
    /// below lease_ttl_ms.
    std::size_t heartbeat_ms = 2'000;
  };

  /// What run() did, for the CLI's exit summary. Telemetry counters
  /// (serve.*) carry the same facts for metrics scrapes.
  struct Report {
    std::size_t clients = 0;
    std::size_t workers = 0;  ///< HELLOs accepted
    std::size_t queries = 0;
    std::size_t cache_hits = 0;
    std::size_t gap_fills = 0;
    std::size_t cold_runs = 0;
    std::size_t errors = 0;
    std::size_t items_executed = 0;
    std::size_t items_reused = 0;  ///< items answered from cached stores
  };

  /// Binds the endpoint, builds the session pool and rehydrates the
  /// cache. Throws std::invalid_argument when heartbeat_ms >=
  /// lease_ttl_ms (before binding anything), and on bind/cache failure —
  /// fail at startup, not at the first query.
  explicit Daemon(Options options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// The resolved listen endpoint (reports the real port for port 0).
  [[nodiscard]] const std::string& endpoint() const noexcept {
    return listener_.endpoint();
  }
  [[nodiscard]] const ResultCache& cache() const noexcept { return cache_; }

  /// Serves until request_stop(), then drains gracefully. Call once.
  Report run();

  /// Async-signal-safe stop request (one write to a self-pipe) — the
  /// SIGTERM/SIGINT handler calls this. Idempotent.
  void request_stop() noexcept;

  /// Metrics accrued since construction (serve.*, session.*, workpool.*,
  /// codec.*, ... — the session's baseline diff), plus the snapshots
  /// departing workers shipped.
  [[nodiscard]] util::telemetry::MetricsSnapshot telemetry() const;

 private:
  /// One connection and its handler thread. The drain shuts down idle
  /// client sockets (busy == false) to wake their blocked reads; busy
  /// handlers finish their query, answer, see stopping_ and exit. A
  /// handler's last act is to set `finished`, after it has released
  /// every lock, so run() may join and erase it.
  struct Conn {
    util::Socket socket;
    std::thread thread;
    std::atomic<bool> busy{false};
    std::atomic<bool> finished{false};
    bool worker = false;  ///< guarded by mutex_
  };
  struct Grid;  ///< one grid executing as leases (daemon.cpp)
  /// A granted wire lease: daemon-wide id -> (grid, table lease, range),
  /// kept until the grid closes so a stale result is still credited.
  struct WireLease {
    std::shared_ptr<Grid> grid;
    std::uint64_t table_id = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  void accept_one();
  void reap_finished();
  /// Shuts every connection's socket down and joins its handler.
  void join_all();
  void handle_connection(Conn& conn);
  void serve_client(Conn& conn, util::Frame& frame);
  void serve_worker(Conn& conn, const util::Frame& hello);
  void grant_lease(util::Socket& socket, const std::string& owner);
  void ingest(const LeaseResult& result);
  /// Answers one decoded query, streaming Progress frames for executed
  /// grids. Throws SocketError/FrameError when the client dies mid-query
  /// (the in-flight grid is cancelled first).
  Result answer(const Query& query, Conn& conn);
  campaign::ResultStore execute_local(const campaign::CampaignSpec& spec,
                                      const campaign::ResultStore* resume,
                                      Conn& conn);
  /// Leases `spec` (minus `adopted`'s prefix) to the attached workers and
  /// returns the path of the canonical merge of their shards.
  std::string execute_leased(const campaign::CampaignSpec& spec,
                             const campaign::ResultStore& adopted,
                             Conn& conn);
  void close_grid(const std::shared_ptr<Grid>& grid);  ///< under mutex_

  Options options_;
  campaign::Session session_;
  ResultCache cache_;
  std::string spool_dir_;
  util::Listener listener_;
  int stop_rd_ = -1;
  int stop_wr_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<int> clients_connected_{0};
  std::atomic<std::uint64_t> next_grid_id_{1};  ///< spool file names

  /// Guards cache_, report_, conns_' membership and worker flags, the
  /// lease state below, and closing a connection's socket.
  mutable std::mutex mutex_;
  std::condition_variable cv_;  ///< grid progress / worker departures
  Report report_;
  std::list<Conn> conns_;
  std::list<std::shared_ptr<Grid>> grids_;  ///< executing, oldest first
  std::unordered_map<std::uint64_t, WireLease> leases_;
  std::uint64_t next_lease_id_ = 1;
  std::size_t workers_ = 0;       ///< attached right now
  bool release_workers_ = false;  ///< drain: answer NoWork{done}
  util::telemetry::MetricsSnapshot worker_metrics_;
};

}  // namespace ulpdream::serve
