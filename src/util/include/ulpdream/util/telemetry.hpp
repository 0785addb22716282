#pragma once
// util::telemetry — runtime introspection for the campaign stack, two
// independent halves sharing one design rule: when nothing is looking,
// the instrumented code must run at full speed.
//
//  - Trace recorder: per-thread lock-free ring buffers of span events
//    with nanosecond timestamps, exported as Chrome trace-event
//    JSON (load the file in Perfetto / chrome://tracing). Activation is
//    explicit — trace::start(), the campaign CLI's --trace flag, or the
//    ULPDREAM_TRACE=out.json environment variable (which also writes the
//    file at process exit). While tracing is off, an instrumented scope
//    costs a single relaxed atomic load; there is no locking anywhere on
//    the producer path even while tracing is on (a full ring drops the
//    event and counts the drop rather than block a worker).
//
//  - Metrics registry: named counters, gauges and fixed log-bucket
//    histograms, sharded per thread (an update is one relaxed fetch_add
//    on a thread-private cache line, so workers never contend) and merged
//    on scrape into a MetricsSnapshot — a plain value that serializes to
//    JSON losslessly and byte-stably, and merges associatively with
//    snapshots from other threads, processes or machines. That merge is
//    the contract the future distributed mode consumes: every worker
//    process scrapes locally, the daemon folds the snapshots.
//    Counters of deterministic work (words encoded, items executed)
//    merge exactly across any shard split; wall-clock histograms merge
//    bucket-wise (counts are exact, the time distribution is whatever
//    the machines measured).
//
// Hot-path *timing* (per-block codec latency histograms) has a second
// gate, hot_timing_enabled(): counters are cheap enough to stay on
// always, but steady_clock reads per 1 kB chunk are not, so the latency
// histograms only tick when a scraper opted in (--metrics-out, the
// datapath bench, tests).
//
// Instrumented scopes nest naturally:
//
//   void Session::checkpoint() {
//     ULPDREAM_TRACE_SPAN("session.checkpoint");   // RAII span
//     static const telemetry::Counter saves("session.checkpoints");
//     saves.add();
//     ...
//   }

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

namespace ulpdream::util::telemetry {

// ---------------------------------------------------------------------------
// Metrics registry.

/// Handle to a named monotone counter. Construction resolves the name to
/// a registry id (one mutex-guarded map lookup — do it once, not per
/// event); add() is one relaxed fetch_add on this thread's shard.
/// Handles are trivially copyable and never invalidated.
class Counter {
 public:
  explicit Counter(const std::string& name);
  void add(std::uint64_t n = 1) const noexcept;

 private:
  std::uint32_t id_;
};

/// Handle to a named last-write-wins gauge (process-global, not sharded:
/// a gauge is a statement of current state, not an accumulation).
class Gauge {
 public:
  explicit Gauge(const std::string& name);
  void set(double value) const noexcept;

 private:
  std::uint32_t id_;
};

/// Handle to a named log2-bucket histogram of non-negative integer values
/// (latencies in ns, sizes in bytes). A recorded value v lands in bucket
/// bit_width(v) (bucket 0 holds exactly v == 0, bucket k holds
/// [2^(k-1), 2^k)), so merging shards is bucket-wise addition and the
/// p50/p95/p99 estimates carry at most a 2x quantization — the right
/// trade for a mergeable, fixed-footprint latency record.
class Histogram {
 public:
  explicit Histogram(const std::string& name);
  void record(std::uint64_t value) const noexcept;

 private:
  std::uint32_t id_;
};

/// One histogram's merged state: total value sum plus the sparse
/// (bucket -> count) map. Quantiles are estimated from the buckets.
struct HistogramSnapshot {
  std::uint64_t sum = 0;
  std::map<int, std::uint64_t> buckets;

  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double mean() const noexcept;
  /// Geometric-midpoint estimate of the q-quantile (q in [0, 1]);
  /// 0 when the histogram is empty.
  [[nodiscard]] double quantile(double q) const noexcept;

  void merge(const HistogramSnapshot& other);
  bool operator==(const HistogramSnapshot&) const = default;
};

/// Point-in-time merged view of every registered metric. A plain value:
/// copy it, diff it, merge it, ship it as JSON. Keys are sorted (std::map)
/// and doubles use shortest-round-trip formatting, so write_json() is
/// byte-stable: write -> read -> write reproduces the exact bytes.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Associative fold: counters and histogram buckets add, gauges take
  /// `other`'s value (the later statement of state wins). merge(a, b)
  /// then merge(_, c) equals merge(a, merge(b, c)) — the distributed
  /// daemon may fold worker snapshots in any grouping.
  void merge(const MetricsSnapshot& other);

  /// This snapshot relative to an earlier `baseline` of the same process:
  /// counters and histograms subtract, gauges keep their current value.
  /// Session::telemetry() uses this to report one session's activity out
  /// of the process-global registry.
  [[nodiscard]] MetricsSnapshot since(const MetricsSnapshot& baseline) const;

  void write_json(std::ostream& os) const;
  /// Inverse of write_json(); throws std::invalid_argument naming the
  /// byte offset on malformed input — a count that is not a plain 64-bit
  /// unsigned integer, a histogram bucket outside [0, 64], a section
  /// missing or repeated. Round trip is loss-free and byte-stable.
  [[nodiscard]] static MetricsSnapshot read_json(std::istream& is);

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Merges every thread shard (live and retired) into one snapshot. Safe
/// to call concurrently with updates — relaxed reads see each shard's
/// values no staler than the call's start. Also injects the current
/// state gauges (simd.active_tier).
[[nodiscard]] MetricsSnapshot snapshot();

/// Zeroes every counter and histogram cell (test isolation hook). Not
/// synchronized against concurrent updates — call it only while no
/// instrumented code is running.
void reset_metrics();

namespace detail {
extern std::atomic<bool> g_hot_timing;
}  // namespace detail

/// Gate for instrumentation whose *measurement* is too costly for the
/// always-on path (steady_clock reads per codec block). Off by default;
/// --metrics-out, the datapath bench and the telemetry tests switch it on.
[[nodiscard]] inline bool hot_timing_enabled() noexcept {
  return detail::g_hot_timing.load(std::memory_order_relaxed);
}
void set_hot_timing(bool on) noexcept;

// ---------------------------------------------------------------------------
// Trace recorder.

namespace trace {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// The only check on the disabled path: one relaxed atomic load.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Enables event recording (idempotent; events accumulate across
/// start/stop cycles until reset()).
void start() noexcept;
void stop() noexcept;
/// Discards all recorded events and drop counts.
void reset();

/// Events recorded so far, across all threads (diagnostic).
[[nodiscard]] std::size_t event_count();

/// Writes every recorded event as Chrome trace-event JSON — one complete
/// ("ph":"X") event per span, plus thread-name metadata and, when a full
/// ring dropped events, one "telemetry.dropped_events" marker. Timestamps are microseconds since the process trace epoch.
/// Loadable in Perfetto (ui.perfetto.dev) and chrome://tracing.
void write_chrome_json(std::ostream& os);

}  // namespace trace

/// Nanoseconds since the process-wide trace epoch (steady clock).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Copies `name` into the process-lifetime string arena and returns a
/// stable pointer — for span names composed at runtime (e.g. per-EMT).
/// Interning is deduplicated; call it once per name, not per event.
[[nodiscard]] const char* intern(const std::string& name);

namespace detail {
/// Slow path, called only while tracing is enabled.
void emit_span(const char* name, std::uint64_t start_ns) noexcept;
}  // namespace detail

/// RAII span: records a begin timestamp at construction and emits one
/// complete trace event at destruction. `name` must outlive the recorder
/// (string literal or intern()ed). Cost while tracing is off: one relaxed
/// load, no stores.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) noexcept {
    if (trace::enabled()) {
      name_ = name;
      start_ = now_ns();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) detail::emit_span(name_, start_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t start_ = 0;
};

}  // namespace ulpdream::util::telemetry

// Scoped span macro: ULPDREAM_TRACE_SPAN("claim_batch"). The short
// TRACE_SPAN spelling is provided unless something else claimed it.
#define ULPDREAM_TELEMETRY_CAT2(a, b) a##b
#define ULPDREAM_TELEMETRY_CAT(a, b) ULPDREAM_TELEMETRY_CAT2(a, b)
#define ULPDREAM_TRACE_SPAN(name)                               \
  const ::ulpdream::util::telemetry::TraceSpan                  \
      ULPDREAM_TELEMETRY_CAT(ulpd_trace_span_, __LINE__) { name }
#ifndef TRACE_SPAN
#define TRACE_SPAN(name) ULPDREAM_TRACE_SPAN(name)
#endif
