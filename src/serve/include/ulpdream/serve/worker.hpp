#pragma once
// Campaign worker: attaches to a daemon with a versioned HELLO, then
// loops — lease a range, execute it through campaign::Session::submit
// (item_range) on the grid the grant names, ship the completed range back
// as a columnar store file's bytes — until the daemon says it is
// stopping. While a lease executes, the worker heartbeats from its main
// thread (the Session's pool does the computing) so a healthy-but-slow
// worker is never mistaken for a dead one; while idle, it polls at the
// daemon's heartbeat cadence. With checkpoint_dir set, the in-progress
// lease store is also checkpointed locally (forensics only: the daemon
// re-leases a dead worker's range regardless).
//
// Every item's RNG stream is keyed on (spec.seed, item.index) only, so
// the union of any lease split is bit-identical to the single-process
// run — the property the daemon's append-merge turns into byte-equal
// store files.

#include <cstddef>
#include <string>
#include <utility>

namespace ulpdream::serve {

class Worker {
 public:
  struct Options {
    /// Daemon endpoint ("host:port" or "unix:/path").
    std::string connect;
    /// Human label for logs and daemon-side telemetry.
    std::string name = "worker";
    /// Session threads (0 = hardware concurrency).
    unsigned threads = 0;
    /// Periodic local checkpoints of the in-progress lease store (empty =
    /// off). Files land as <dir>/<name>_lease_<id>.ulpdcol.
    std::string checkpoint_dir;
    /// Checkpoint cadence in items (only with checkpoint_dir).
    std::size_t checkpoint_every = 0;
  };

  struct Report {
    std::size_t leases_completed = 0;
    std::size_t items_executed = 0;
  };

  explicit Worker(Options options) : options_(std::move(options)) {}

  /// Connects, handshakes and works until the daemon answers NoWork{done}
  /// (then ships this session's metrics snapshot and says Goodbye).
  /// Throws SocketError/ProtocolError on transport failure and
  /// std::runtime_error quoting the daemon's reason on HelloReject.
  Report run();

 private:
  Options options_;
};

}  // namespace ulpdream::serve
