#pragma once
// Asynchronous execution runtime — the one engine that runs every
// Monte-Carlo grid (the campaign CLI, daemon and workers, the figure
// benches and the examples). A Session is a long-lived object that
// owns one shared util::WorkPool; any number of campaigns are submitted
// onto it concurrently and interleave at work-item granularity. Each
// item draws one fault map at BER(V) from its own RNG stream and shares
// it across every (app, EMT) pair — the paper's Sec. V fairness
// protocol. submit() returns a CampaignHandle — a future-like job handle
// with take(), live progress (items done, throughput),
// cooperative item-granular cancellation, an observer that
// streams each completed WorkItem's samples as it lands, and periodic
// ResultStore checkpoint snapshots that a later submit(spec,
// resume_from=...) completes by running only the missing items.
//
// The determinism contract is the whole point: every item's RNG stream
// is keyed on (spec.seed, item.index) and every item writes a disjoint
// store slice, so any thread count, N campaigns interleaved on one
// session, a cancellation at any point, and any checkpoint/resume split
// all reproduce the uninterrupted single-campaign store bit-identically
// (tests/session_test.cpp pins this, including byte-compares of the
// saved raw stores).
//
//   campaign::Session session;                   // one pool, many jobs
//   auto a = session.submit(spec_a);
//   auto b = session.submit(spec_b, opts);       // runs interleaved
//   while (!a.progress().finished) { report(a.progress()); ... }
//   ResultStore done = b.take();

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "ulpdream/campaign/result_store.hpp"
#include "ulpdream/campaign/spec.hpp"
#include "ulpdream/energy/energy_model.hpp"
#include "ulpdream/util/cli.hpp"
#include "ulpdream/util/telemetry.hpp"
#include "ulpdream/util/work_pool.hpp"

namespace ulpdream::campaign {

namespace detail {
struct CampaignJob;
}  // namespace detail

class CampaignHandle;

/// Which slice of the campaign a submission executes. The default (0 of
/// 1) is the whole grid; running the shards of any split and merging
/// their stores reproduces the unsharded store exactly.
struct Shard {
  std::size_t index = 0;
  std::size_t count = 1;
};

/// Point-in-time view of a submitted campaign.
struct Progress {
  std::size_t items_done = 0;     ///< recorded in the store (incl. resumed)
  std::size_t items_total = 0;    ///< items in this submission's shard slice
  std::size_t items_resumed = 0;  ///< satisfied by the resume store
  /// Executed items per second of elapsed time (resumed items excluded);
  /// 0 until the first item lands.
  double items_per_second = 0.0;
  /// Exponentially weighted recent rate (~5 s time constant) — the ETA
  /// numerator that does not lie for minutes after a resume, where the
  /// lifetime average is dragged by the pre-restart gap. Falls back to
  /// items_per_second until the first smoothing window (0.5 s) closes.
  double items_per_second_ewma = 0.0;
  bool cancelled = false;
  bool finished = false;

  /// Items still to run; the ETA numerator.
  [[nodiscard]] std::size_t items_remaining() const noexcept {
    return items_total - items_done;
  }
};

/// Per-submission options. All callbacks are invoked from pool worker
/// threads, serialized by the job's lock (never concurrently). on_item
/// receives the job's own handle — calling handle.cancel() there is the
/// idiomatic, race-free "stop after N items" — but callbacks must not
/// block on the handle (take()).
/// A contiguous slice [begin, end) of the canonical item expansion — the
/// unit of distributed work leasing (serve::Daemon grants these).
struct ItemRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
};

struct SubmitOptions {
  /// Slice of the grid this submission executes (default: all of it).
  Shard shard{};
  /// When set, execute exactly the contiguous items [begin, end) instead
  /// of a strided shard (mutually exclusive with a non-default `shard`;
  /// submit() throws when both are given). The store is preallocated
  /// over the range, so worker memory scales with the lease, never the
  /// grid.
  std::optional<ItemRange> item_range;
  /// Completed store of a previous (interrupted) run of the *same* spec:
  /// its recorded items are adopted verbatim and only the missing ones
  /// run. A fingerprint mismatch (axes + seed) throws immediately.
  const ResultStore* resume_from = nullptr;
  /// Invoke on_checkpoint after every N executed items (0 = never).
  std::size_t checkpoint_every = 0;
  /// Streams each completed item's samples (app-major, EMT-minor) the
  /// moment it is recorded, along with the job's handle.
  std::function<void(const CampaignHandle&, const WorkItem&,
                     std::span<const Sample>)>
      on_item;
  /// Receives a consistent snapshot of the store (resumable via
  /// submit(spec, resume_from)). Workers pause while it runs — keep it
  /// to a save() and return.
  std::function<void(const ResultStore&)> on_checkpoint;
};

/// Future-like handle to a submitted campaign. Copyable (shared state);
/// outlives the Session safely.
class CampaignHandle {
 public:
  CampaignHandle() = default;

  /// Blocks until the job finishes (all items done, or cancelled with
  /// in-flight items drained) and moves the store out of the runtime:
  /// complete for an uncancelled single-shard run, partial otherwise — a
  /// partial store checkpoints/resumes like any other. Rethrows a worker
  /// exception. One-shot: a second take() returns an empty store
  /// (progress counters remain).
  [[nodiscard]] ResultStore take() const;
  [[nodiscard]] Progress progress() const;
  /// Cooperative and item-granular: items already executing finish and
  /// are recorded; unclaimed items never start. Idempotent.
  void cancel() const;
  [[nodiscard]] bool valid() const noexcept { return job_ != nullptr; }

  /// Internal: wraps a job's shared state (Session and the on_item
  /// dispatch construct these; detail::CampaignJob is not a user type).
  explicit CampaignHandle(std::shared_ptr<detail::CampaignJob> job);

 private:
  std::shared_ptr<detail::CampaignJob> job_;
};

class Session {
 public:
  /// `threads` == 0 picks std::thread::hardware_concurrency().
  explicit Session(
      energy::SystemEnergyModel energy_model = energy::SystemEnergyModel(),
      unsigned threads = 0);
  /// Cancels outstanding jobs (in-flight items drain) and joins the
  /// pool. Handles stay valid; their take() returns the partial store.
  ~Session() = default;

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Builds a session from the shared `--threads N` CLI convention.
  [[nodiscard]] static Session from_cli(
      const util::Cli& cli,
      energy::SystemEnergyModel energy_model = energy::SystemEnergyModel());

  /// Enqueues the shard's slice of the (normalized) spec and returns
  /// immediately. Record generation, component resolution and the
  /// clean-run SNR ceilings happen here on the calling thread — all
  /// deterministic — so a resumed or interleaved run reproduces the
  /// uninterrupted store bit-identically.
  [[nodiscard]] CampaignHandle submit(const CampaignSpec& spec,
                                      SubmitOptions options = {});

  [[nodiscard]] unsigned threads() const noexcept { return pool_.threads(); }
  [[nodiscard]] const energy::SystemEnergyModel& energy_model() const {
    return energy_model_;
  }

  /// Metrics accrued since this Session was constructed: the process
  /// registry's snapshot() diffed against a baseline taken in the
  /// constructor (counters/histograms subtract; gauges report current
  /// state). Catalog: session.* (items, run latencies, checkpoints),
  /// workpool.* (claims, steals, busy/idle), codec.<emt>.*, mem.*,
  /// store.* — see README "Observability".
  [[nodiscard]] util::telemetry::MetricsSnapshot telemetry() const {
    return util::telemetry::snapshot().since(baseline_);
  }

 private:
  energy::SystemEnergyModel energy_model_;
  util::telemetry::MetricsSnapshot baseline_;
  util::WorkPool pool_;
};

}  // namespace ulpdream::campaign
