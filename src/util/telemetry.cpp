#include "ulpdream/util/telemetry.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <deque>
#include <istream>
#include <iterator>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "ulpdream/util/simd.hpp"
#include "ulpdream/util/table.hpp"

namespace ulpdream::util::telemetry {

namespace {

// ---------------------------------------------------------------------------
// Metrics: fixed-capacity id spaces so thread shards are flat atomic
// arrays that never reallocate — an update is one relaxed fetch_add with
// no locking, and a scrape can walk a shard while its owner keeps
// counting. The caps are far above what the instrumented stack registers
// (a few dozen names); registration past a cap throws loudly rather than
// silently dropping a metric.

constexpr std::uint32_t kMaxCounters = 256;
constexpr std::uint32_t kMaxGauges = 64;
constexpr std::uint32_t kMaxHistograms = 96;
constexpr int kBuckets = 64;  ///< log2 buckets; values clamp to bucket 63

struct HistogramCells {
  std::atomic<std::uint64_t> sum{0};
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
};

/// One thread's private metric cells. ~50 kB; allocated on a thread's
/// first metric update, folded into `retired` when the thread exits.
struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  std::array<std::unique_ptr<HistogramCells>, kMaxHistograms> histograms;

  HistogramCells& histogram(std::uint32_t id) {
    // Owner-thread lazy allocation; scrapers load the pointer with
    // acquire so a freshly published HistogramCells is fully visible.
    HistogramCells* cells = histograms[id].get();
    if (cells == nullptr) {
      histograms[id] = std::make_unique<HistogramCells>();
      cells = histograms[id].get();
    }
    return *cells;
  }
};

struct Registry {
  std::mutex mutex;
  // Name tables (append-only; index == metric id).
  std::map<std::string, std::uint32_t> counter_ids, gauge_ids, histogram_ids;
  std::vector<std::string> counter_names, gauge_names, histogram_names;
  // Live thread shards plus the fold of every exited thread's shard.
  std::vector<std::shared_ptr<Shard>> shards;
  Shard retired;
  // Gauges are global (last write wins), stored as bit-cast doubles.
  std::array<std::atomic<std::uint64_t>, kMaxGauges> gauges{};
};

/// Leaked on purpose: pool workers may still count during static
/// destruction of the main thread's objects.
Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

std::uint32_t register_name(std::map<std::string, std::uint32_t>& ids,
                            std::vector<std::string>& names,
                            const std::string& name, std::uint32_t cap,
                            const char* kind) {
  Registry& r = registry();
  const std::lock_guard lock(r.mutex);
  if (const auto it = ids.find(name); it != ids.end()) return it->second;
  if (names.size() >= cap) {
    throw std::runtime_error(std::string("telemetry: ") + kind +
                             " id space exhausted registering \"" + name +
                             "\" (cap " + std::to_string(cap) + ")");
  }
  const auto id = static_cast<std::uint32_t>(names.size());
  names.push_back(name);
  ids.emplace(name, id);
  return id;
}

/// Folds `from`'s cells into `into` (relaxed loads: the owner thread is
/// gone or the scrape tolerates slightly-stale values by contract).
void fold_shard(Shard& into, const Shard& from) {
  for (std::uint32_t i = 0; i < kMaxCounters; ++i) {
    const std::uint64_t v = from.counters[i].load(std::memory_order_relaxed);
    if (v != 0) into.counters[i].fetch_add(v, std::memory_order_relaxed);
  }
  for (std::uint32_t i = 0; i < kMaxHistograms; ++i) {
    const HistogramCells* cells = from.histograms[i].get();
    if (cells == nullptr) continue;
    HistogramCells& dst = into.histogram(i);
    dst.sum.fetch_add(cells->sum.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    for (int b = 0; b < kBuckets; ++b) {
      const std::uint64_t c = cells->buckets[static_cast<std::size_t>(b)].load(
          std::memory_order_relaxed);
      if (c != 0) {
        dst.buckets[static_cast<std::size_t>(b)].fetch_add(
            c, std::memory_order_relaxed);
      }
    }
  }
}

/// Thread-exit hook: retire this thread's shard so its counts survive.
struct ShardOwner {
  std::shared_ptr<Shard> shard;
  ~ShardOwner() {
    if (shard == nullptr) return;
    Registry& r = registry();
    const std::lock_guard lock(r.mutex);
    fold_shard(r.retired, *shard);
    std::erase(r.shards, shard);
  }
};

thread_local ShardOwner t_shard_owner;
thread_local Shard* t_shard = nullptr;

Shard& shard() {
  if (t_shard != nullptr) return *t_shard;
  auto fresh = std::make_shared<Shard>();
  Registry& r = registry();
  {
    const std::lock_guard lock(r.mutex);
    r.shards.push_back(fresh);
  }
  t_shard_owner.shard = fresh;
  t_shard = fresh.get();
  return *t_shard;
}

int bucket_of(std::uint64_t value) noexcept {
  return std::min(static_cast<int>(std::bit_width(value)), kBuckets - 1);
}

}  // namespace

Counter::Counter(const std::string& name)
    : id_(register_name(registry().counter_ids, registry().counter_names,
                        name, kMaxCounters, "counter")) {}

void Counter::add(std::uint64_t n) const noexcept {
  shard().counters[id_].fetch_add(n, std::memory_order_relaxed);
}

Gauge::Gauge(const std::string& name)
    : id_(register_name(registry().gauge_ids, registry().gauge_names, name,
                        kMaxGauges, "gauge")) {}

void Gauge::set(double value) const noexcept {
  registry().gauges[id_].store(std::bit_cast<std::uint64_t>(value),
                               std::memory_order_relaxed);
}

Histogram::Histogram(const std::string& name)
    : id_(register_name(registry().histogram_ids, registry().histogram_names,
                        name, kMaxHistograms, "histogram")) {}

void Histogram::record(std::uint64_t value) const noexcept {
  HistogramCells& cells = shard().histogram(id_);
  cells.sum.fetch_add(value, std::memory_order_relaxed);
  cells.buckets[static_cast<std::size_t>(bucket_of(value))].fetch_add(
      1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// HistogramSnapshot.

std::uint64_t HistogramSnapshot::count() const noexcept {
  std::uint64_t n = 0;
  for (const auto& [bucket, c] : buckets) n += c;
  return n;
}

double HistogramSnapshot::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0
                : static_cast<double>(sum) / static_cast<double>(n);
}

double HistogramSnapshot::quantile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n)));
  std::uint64_t cum = 0;
  for (const auto& [bucket, c] : buckets) {
    cum += c;
    if (cum >= std::max<std::uint64_t>(target, 1)) {
      // Bucket 0 holds exactly 0; bucket k holds [2^(k-1), 2^k) — report
      // the geometric midpoint 2^(k - 0.5).
      return bucket == 0 ? 0.0 : std::exp2(static_cast<double>(bucket) - 0.5);
    }
  }
  return 0.0;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  sum += other.sum;
  for (const auto& [bucket, c] : other.buckets) buckets[bucket] += c;
}

// ---------------------------------------------------------------------------
// MetricsSnapshot.

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) gauges[name] = v;
  for (const auto& [name, h] : other.histograms) histograms[name].merge(h);
}

MetricsSnapshot MetricsSnapshot::since(const MetricsSnapshot& baseline) const {
  MetricsSnapshot out;
  out.gauges = gauges;
  for (const auto& [name, v] : counters) {
    const auto it = baseline.counters.find(name);
    const std::uint64_t base = it == baseline.counters.end() ? 0 : it->second;
    out.counters[name] = v >= base ? v - base : 0;
  }
  for (const auto& [name, h] : histograms) {
    HistogramSnapshot d;
    const auto it = baseline.histograms.find(name);
    const HistogramSnapshot* base =
        it == baseline.histograms.end() ? nullptr : &it->second;
    d.sum = base != nullptr && base->sum <= h.sum ? h.sum - base->sum : h.sum;
    for (const auto& [bucket, c] : h.buckets) {
      std::uint64_t bc = 0;
      if (base != nullptr) {
        if (const auto bit = base->buckets.find(bucket);
            bit != base->buckets.end()) {
          bc = bit->second;
        }
      }
      if (c > bc) d.buckets[bucket] = c - bc;
    }
    out.histograms[name] = d;
  }
  return out;
}

MetricsSnapshot snapshot() {
  Registry& r = registry();
  MetricsSnapshot out;
  const std::lock_guard lock(r.mutex);
  // Dense fold over the id space first, then name the non-slots.
  Shard total;
  fold_shard(total, r.retired);
  for (const std::shared_ptr<Shard>& s : r.shards) fold_shard(total, *s);
  for (std::uint32_t i = 0; i < r.counter_names.size(); ++i) {
    out.counters[r.counter_names[i]] =
        total.counters[i].load(std::memory_order_relaxed);
  }
  for (std::uint32_t i = 0; i < r.gauge_names.size(); ++i) {
    out.gauges[r.gauge_names[i]] = std::bit_cast<double>(
        r.gauges[i].load(std::memory_order_relaxed));
  }
  for (std::uint32_t i = 0; i < r.histogram_names.size(); ++i) {
    HistogramSnapshot h;
    if (const HistogramCells* cells = total.histograms[i].get()) {
      h.sum = cells->sum.load(std::memory_order_relaxed);
      for (int b = 0; b < kBuckets; ++b) {
        const std::uint64_t c =
            cells->buckets[static_cast<std::size_t>(b)].load(
                std::memory_order_relaxed);
        if (c != 0) h.buckets[b] = c;
      }
    }
    out.histograms[r.histogram_names[i]] = h;
  }
  // State gauges injected at scrape time so the hot paths never pay for
  // keeping them fresh.
  out.gauges["simd.active_tier"] =
      static_cast<double>(static_cast<int>(simd::active_tier()));
  return out;
}

void reset_metrics() {
  Registry& r = registry();
  const std::lock_guard lock(r.mutex);
  auto zero = [](Shard& s) {
    for (auto& c : s.counters) c.store(0, std::memory_order_relaxed);
    for (auto& h : s.histograms) {
      if (h == nullptr) continue;
      h->sum.store(0, std::memory_order_relaxed);
      for (auto& b : h->buckets) b.store(0, std::memory_order_relaxed);
    }
  };
  zero(r.retired);
  for (const std::shared_ptr<Shard>& s : r.shards) zero(*s);
}

namespace detail {
std::atomic<bool> g_hot_timing{false};
}  // namespace detail

void set_hot_timing(bool on) noexcept {
  detail::g_hot_timing.store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Metrics JSON: a flat three-section document, keys sorted, u64 values in
// decimal and gauges through fmt_exact — write -> read -> write is
// byte-identical (telemetry_test pins this).

namespace {

struct JsonParser {
  const std::string& text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("MetricsSnapshot::read_json: " + what +
                                " at offset " + std::to_string(pos));
  }
  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                                 text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }
  char peek() {
    skip_ws();
    if (pos >= text.size()) fail("unexpected end");
    return text[pos];
  }
  void expect(char ch) {
    if (peek() != ch) fail(std::string("expected '") + ch + "'");
    ++pos;
  }
  bool consume(char ch) {
    if (peek() != ch) return false;
    ++pos;
    return true;
  }
  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos < text.size() && text[pos] != '"') {
      char ch = text[pos++];
      if (ch == '\\') {
        if (pos >= text.size()) fail("bad escape");
        switch (text[pos++]) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          default: fail("unsupported escape");
        }
      } else {
        out.push_back(ch);
      }
    }
    if (pos >= text.size()) fail("unterminated string");
    ++pos;
    return out;
  }
  std::uint64_t parse_u64() {
    skip_ws();
    const std::size_t start = pos;
    while (pos < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    if (pos == start) fail("expected unsigned integer");
    const std::string token = text.substr(start, pos - start);
    try {
      return parse_u64_exact(token);
    } catch (const std::invalid_argument&) {
      pos = start;
      fail("unsigned integer " + token + " does not fit in 64 bits");
    }
  }
  /// A histogram bucket key: a bit_width value, so an integer in [0, 64].
  int parse_bucket() {
    skip_ws();
    const std::size_t start = pos;
    const std::string key = parse_string();
    try {
      if (const std::uint64_t bucket = parse_u64_exact(key); bucket <= 64) {
        return static_cast<int>(bucket);
      }
    } catch (const std::invalid_argument&) {
    }
    pos = start;
    fail("histogram bucket \"" + key + "\" is not an integer in [0, 64]");
  }
  double parse_double() {
    skip_ws();
    const std::size_t start = pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '-' || text[pos] == '+' || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
    }
    if (pos == start) fail("expected number");
    return parse_double_exact(text.substr(start, pos - start));
  }
};

}  // namespace

void MetricsSnapshot::write_json(std::ostream& os) const {
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : counters) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    json_escape(os, name);
    os << ": " << v;
  }
  os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    json_escape(os, name);
    os << ": " << fmt_exact(v);
  }
  os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    json_escape(os, name);
    os << ": {\"sum\": " << h.sum << ", \"buckets\": {";
    bool bfirst = true;
    for (const auto& [bucket, c] : h.buckets) {
      os << (bfirst ? "" : ", ") << '"' << bucket << "\": " << c;
      bfirst = false;
    }
    os << "}}";
  }
  os << (first ? "" : "\n  ") << "}\n}\n";
}

MetricsSnapshot MetricsSnapshot::read_json(std::istream& is) {
  const std::string text(std::istreambuf_iterator<char>(is), {});
  JsonParser p{text};
  MetricsSnapshot out;
  p.expect('{');
  // Exactly three sections, each once (in any order).
  std::vector<std::string> seen;
  for (int section = 0; section < 3; ++section) {
    p.skip_ws();
    const std::size_t key_at = p.pos;
    const std::string key = p.parse_string();
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
      p.pos = key_at;
      p.fail("duplicate section \"" + key + "\"");
    }
    seen.push_back(key);
    p.expect(':');
    p.expect('{');
    if (key == "counters") {
      if (!p.consume('}')) {
        do {
          const std::string name = p.parse_string();
          p.expect(':');
          out.counters[name] = p.parse_u64();
        } while (p.consume(','));
        p.expect('}');
      }
    } else if (key == "gauges") {
      if (!p.consume('}')) {
        do {
          const std::string name = p.parse_string();
          p.expect(':');
          out.gauges[name] = p.parse_double();
        } while (p.consume(','));
        p.expect('}');
      }
    } else if (key == "histograms") {
      if (!p.consume('}')) {
        do {
          const std::string name = p.parse_string();
          p.expect(':');
          p.expect('{');
          HistogramSnapshot h;
          do {
            const std::string field = p.parse_string();
            p.expect(':');
            if (field == "sum") {
              h.sum = p.parse_u64();
            } else if (field == "buckets") {
              p.expect('{');
              if (!p.consume('}')) {
                do {
                  const int bucket = p.parse_bucket();
                  p.expect(':');
                  h.buckets[bucket] = p.parse_u64();
                } while (p.consume(','));
                p.expect('}');
              }
            } else {
              p.fail("unknown histogram field \"" + field + "\"");
            }
          } while (p.consume(','));
          p.expect('}');
          out.histograms[name] = h;
        } while (p.consume(','));
        p.expect('}');
      }
    } else {
      p.fail("unknown section \"" + key + "\"");
    }
    if (section < 2) p.expect(',');
  }
  p.expect('}');
  return out;
}

// ---------------------------------------------------------------------------
// Trace recorder.

namespace {

constexpr std::size_t kRingCapacity = 1 << 15;  ///< events per thread

struct TraceEvent {
  const char* name;
  std::uint64_t ts_ns;
  std::uint64_t dur_ns;
};

/// Single-producer ring: the owning thread writes the entry, then
/// publishes it with a release store of the new count; readers
/// acquire-load the count and see fully-written entries. A full ring
/// drops the event (and counts the drop) — the producer never blocks and
/// never overwrites an entry a reader might be walking.
struct TraceRing {
  explicit TraceRing(std::uint32_t tid_) : tid(tid_) {
    events.resize(kRingCapacity);
  }
  std::vector<TraceEvent> events;
  std::atomic<std::size_t> count{0};
  std::atomic<std::uint64_t> dropped{0};
  std::uint32_t tid;

  void push(const TraceEvent& e) noexcept {
    const std::size_t n = count.load(std::memory_order_relaxed);
    if (n >= kRingCapacity) {
      dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    events[n] = e;
    count.store(n + 1, std::memory_order_release);
  }
};

struct TraceState {
  std::mutex mutex;
  std::vector<std::shared_ptr<TraceRing>> rings;
  std::deque<std::string> arena;  ///< intern() storage, stable addresses
  std::map<std::string, const char*> interned;
  std::uint32_t next_tid = 1;
};

TraceState& trace_state() {
  static TraceState* s = new TraceState();
  return *s;
}

std::chrono::steady_clock::time_point trace_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

thread_local TraceRing* t_ring = nullptr;

TraceRing& ring() {
  if (t_ring != nullptr) return *t_ring;
  TraceState& s = trace_state();
  const std::lock_guard lock(s.mutex);
  auto fresh = std::make_shared<TraceRing>(s.next_tid++);
  s.rings.push_back(fresh);
  t_ring = fresh.get();
  return *t_ring;
}

}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - trace_epoch())
          .count());
}

const char* intern(const std::string& name) {
  TraceState& s = trace_state();
  const std::lock_guard lock(s.mutex);
  if (const auto it = s.interned.find(name); it != s.interned.end()) {
    return it->second;
  }
  s.arena.push_back(name);
  const char* p = s.arena.back().c_str();
  s.interned.emplace(name, p);
  return p;
}

namespace trace {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

void start() noexcept {
  (void)trace_epoch();  // pin the epoch before the first event
  detail::g_enabled.store(true, std::memory_order_relaxed);
}

void stop() noexcept {
  detail::g_enabled.store(false, std::memory_order_relaxed);
}

void reset() {
  TraceState& s = trace_state();
  const std::lock_guard lock(s.mutex);
  for (const std::shared_ptr<TraceRing>& r : s.rings) {
    r->count.store(0, std::memory_order_relaxed);
    r->dropped.store(0, std::memory_order_relaxed);
  }
}

std::size_t event_count() {
  TraceState& s = trace_state();
  const std::lock_guard lock(s.mutex);
  std::size_t n = 0;
  for (const std::shared_ptr<TraceRing>& r : s.rings) {
    n += r->count.load(std::memory_order_acquire);
  }
  return n;
}

void write_chrome_json(std::ostream& os) {
  struct Row {
    TraceEvent event;
    std::uint32_t tid;
  };
  std::vector<Row> rows;
  std::uint64_t dropped = 0;
  std::uint32_t max_tid = 0;
  {
    TraceState& s = trace_state();
    const std::lock_guard lock(s.mutex);
    for (const std::shared_ptr<TraceRing>& r : s.rings) {
      const std::size_t n = r->count.load(std::memory_order_acquire);
      for (std::size_t i = 0; i < n; ++i) {
        rows.push_back({r->events[i], r->tid});
      }
      dropped += r->dropped.load(std::memory_order_relaxed);
      max_tid = std::max(max_tid, r->tid);
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) {
                     return a.event.ts_ns < b.event.ts_ns;
                   });
  os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  os << R"({"name": "process_name", "ph": "M", "pid": 1, "args": )"
     << R"({"name": "ulpdream"}})";
  for (std::uint32_t tid = 1; tid <= max_tid; ++tid) {
    os << ",\n"
       << R"({"name": "thread_name", "ph": "M", "pid": 1, "tid": )" << tid
       << R"(, "args": {"name": "thread )" << tid << "\"}}";
  }
  for (const Row& row : rows) {
    os << ",\n{\"name\": ";
    json_escape(os, row.event.name);
    // Chrome trace timestamps are microseconds; fractional keeps the ns.
    os << ", \"ph\": \"X\", \"ts\": "
       << fmt_exact(static_cast<double>(row.event.ts_ns) / 1e3)
       << ", \"dur\": "
       << fmt_exact(static_cast<double>(row.event.dur_ns) / 1e3)
       << ", \"pid\": 1, \"tid\": " << row.tid << "}";
  }
  if (dropped != 0) {
    os << ",\n"
       << R"({"name": "telemetry.dropped_events", "ph": "i", "ts": 0, )"
       << R"("s": "g", "pid": 1, "tid": 0, "args": {"count": )" << dropped
       << "}}";
  }
  os << "\n]}\n";
}

}  // namespace trace

namespace detail {

void emit_span(const char* name, std::uint64_t start_ns) noexcept {
  ring().push({name, start_ns, now_ns() - start_ns});
}

}  // namespace detail

}  // namespace ulpdream::util::telemetry
