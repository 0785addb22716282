#pragma once
// The campaign query daemon: a long-lived service that keeps a warm
// campaign::Session (one shared WorkPool) plus a persistent ResultCache
// and answers spec queries over TCP or Unix sockets (serve/protocol.hpp).
//
// Query resolution, in order:
//   1. exact fingerprint hit  — answer straight from the cached columnar
//      file (slurp + optional streaming aggregate); the pool is never
//      touched and no Progress frames are sent.
//   2. overlap gap-fill       — the nearest cached store in the same
//      axes family (records a strict prefix of the query's) is adopted
//      as resume_from and only the gap items execute.
//   3. cold                   — the whole grid executes.
//   Either way the completed store is inserted into the cache, and the
//   Result's store bytes are read back from the published cache file —
//   so what the client receives is byte-identical to what a later hit
//   will serve, and to a single-process `campaign` save of the grid.
//
// Concurrency: one accept loop (poll over the listener and a self-pipe),
// one handler thread per connection, queries from different clients
// interleaving at work-item granularity on the shared Session. The cache
// and counters sit behind one mutex; campaign execution does not.
//
// Shutdown: request_stop() is async-signal-safe (one write to the
// self-pipe) — wire it directly to SIGTERM/SIGINT. The daemon then stops
// accepting, wakes idle connections (they see EOF), lets in-flight
// queries finish and answer, joins every handler, and returns from
// run() with a Report.

#include <atomic>
#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ulpdream/campaign/session.hpp"
#include "ulpdream/serve/cache.hpp"
#include "ulpdream/serve/protocol.hpp"
#include "ulpdream/util/socket.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace ulpdream::serve {

class Daemon {
 public:
  struct Options {
    std::string listen;     ///< "host:port" (port 0 = ephemeral) or "unix:/path"
    std::string cache_dir;  ///< ResultCache directory (required)
    std::uint64_t cache_budget_bytes = std::uint64_t(256) << 20;
    unsigned threads = 0;  ///< session pool size; 0 = hardware_concurrency
    std::size_t max_frame_bytes = kMaxFrameBytes;
    /// Cadence of Progress frames while a query executes.
    std::size_t progress_every_ms = 250;
  };

  /// What run() did, for the CLI's exit summary. Telemetry counters
  /// (serve.*) carry the same facts for metrics scrapes.
  struct Report {
    std::size_t clients = 0;
    std::size_t queries = 0;
    std::size_t cache_hits = 0;
    std::size_t gap_fills = 0;
    std::size_t cold_runs = 0;
    std::size_t errors = 0;
    std::size_t items_executed = 0;
    std::size_t items_reused = 0;  ///< items answered from cached stores
  };

  /// Binds the endpoint, builds the session pool and rehydrates the
  /// cache. Throws on bind/cache failure — fail at startup, not at the
  /// first query.
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
  /// codec.*, ... — the session's baseline diff).
  [[nodiscard]] util::telemetry::MetricsSnapshot telemetry() const {
    return session_.telemetry();
  }

 private:
  /// Per-connection state shared between the handler thread and the
  /// drain sweep: drain shuts down idle sockets (busy == false) to wake
  /// their blocked reads; busy handlers finish their query, answer, see
  /// stopping_ and exit.
  struct ClientConn {
    util::Socket socket;
    std::atomic<bool> busy{false};
  };

  void handle_client(const std::shared_ptr<ClientConn>& conn);
  /// Answers one decoded query, streaming Progress frames for executed
  /// grids. Throws SocketError/FrameError when the client dies mid-query
  /// (the in-flight campaign is cancelled first).
  Result answer(const Query& query, ClientConn& conn);

  Options options_;
  campaign::Session session_;
  ResultCache cache_;
  util::Listener listener_;
  int stop_rd_ = -1;
  int stop_wr_ = -1;
  std::atomic<bool> stopping_{false};
  std::atomic<int> connected_count_{0};

  /// Guards cache_, report_, conns_, and closing a connection's socket.
  std::mutex mutex_;
  Report report_;
  std::vector<std::shared_ptr<ClientConn>> conns_;
  std::vector<std::thread> handlers_;
};

}  // namespace ulpdream::serve
