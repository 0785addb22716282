#pragma once
// Lease bookkeeping for one grid the daemon executes on attached
// workers: which item ranges are still pending, which are out on lease
// (to whom, until when), and which are done. Memory is O(ranges), never
// O(items) — done coverage is a coalescing interval set — which is what
// keeps the daemon's footprint flat in the grid's item count.
//
// Leases are dynamic, not static shards: grant() carves the next chunk
// off the pending pool, expire_due()/revoke_owner() push the ranges of
// dead or silent workers back to the FRONT of the pool (so re-leased
// work stays contiguous with its neighbours), and complete() of a lease
// the table no longer knows (expired, then finished anyway by the
// original worker) is reported as stale — the caller still ingests the
// shard; the store layer's first-done-wins dedup makes the duplicate
// harmless.
//
// The table is externally synchronized: the daemon holds one mutex
// across every call. No member blocks.

#include <cstddef>
#include <cstdint>
#include <chrono>
#include <deque>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace ulpdream::serve {

class LeaseTable {
 public:
  using Clock = std::chrono::steady_clock;

  struct Lease {
    std::uint64_t id = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::string owner;
    Clock::time_point deadline{};
  };

  /// Covers [0, item_count) as one pending range. `lease_items` is the
  /// grant size (the last grant of the pool may be smaller); `ttl` the
  /// heartbeat budget before expire_due() takes a lease back.
  LeaseTable(std::size_t item_count, std::size_t lease_items,
             Clock::duration ttl);

  /// Carves the next lease off the pending pool for `owner`. Ranges that
  /// were completed under another lease in the meantime are skipped, so
  /// a re-leased worker never re-runs finished work. Returns false when
  /// nothing is pending right now (all leased out, or all done).
  [[nodiscard]] bool grant(const std::string& owner, Clock::time_point now,
                           Lease& out);

  /// Marks `lease_id`'s range done and retires the lease. Returns false
  /// for an unknown id — an expired-and-re-leased lease whose original
  /// worker finished anyway. The caller should ingest the result either
  /// way (append_merge dedups); only the bookkeeping differs.
  bool complete(std::uint64_t lease_id);

  /// Marks an arbitrary range done (results recovered outside a live
  /// lease, e.g. a stale LeaseResult that still carries valid items).
  void complete_range(std::size_t begin, std::size_t end);

  /// Extends `lease_id`'s deadline to now + ttl. False for unknown ids.
  bool renew(std::uint64_t lease_id, Clock::time_point now);

  /// Expires every lease whose deadline has passed: their ranges return
  /// to the front of the pending pool. Returns the expired leases (for
  /// logging/telemetry).
  std::vector<Lease> expire_due(Clock::time_point now);

  /// Returns every lease held by `owner` to the pending pool (worker
  /// disconnected or died). Returns the revoked leases.
  std::vector<Lease> revoke_owner(const std::string& owner);

  [[nodiscard]] std::size_t item_count() const noexcept {
    return item_count_;
  }
  [[nodiscard]] std::size_t items_done() const noexcept {
    return items_done_;
  }
  [[nodiscard]] bool all_done() const noexcept {
    return items_done_ == item_count_;
  }
  [[nodiscard]] std::size_t active_leases() const noexcept {
    return active_.size();
  }

 private:
  struct Range {
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// Folds [begin, end) into the done interval set, coalescing with
  /// neighbours, and updates items_done_ (overlaps counted once).
  void mark_done(std::size_t begin, std::size_t end);
  /// First index in [begin, end) not yet done, or end.
  [[nodiscard]] std::size_t skip_done(std::size_t begin,
                                      std::size_t end) const;

  std::size_t item_count_;
  std::size_t lease_items_;
  Clock::duration ttl_;
  std::uint64_t next_id_ = 1;
  std::deque<Range> pending_;  ///< front = next to grant
  std::unordered_map<std::uint64_t, Lease> active_;
  std::map<std::size_t, std::size_t> done_;  ///< begin -> end, coalesced
  std::size_t items_done_ = 0;
};

}  // namespace ulpdream::serve
