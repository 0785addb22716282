// perfbench: campaign throughput and query-daemon latency on one workload
// grid, measured end to end with telemetry off, plus a traced pass that
// attributes the time to modules by timing calls into their public
// functions from outside. README.md next to this file explains the
// workloads, the metrics, and why the end-to-end timings are CPU times
// taken as the least over many short repetitions.
//
//   perfbench --workload paper_grid --seed 1 --seconds 50 --trace 0
//
// Every line but the last is "name value unit" (or a # comment). The last
// line is one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Every run checks its outputs; a mismatch counts as a failed operation
// and makes the exit code 1.
//
// Each workload runs a fixed number of rounds, sized so they take about
// 47 s on a calm 4-vCPU guest. --seconds only caps them: past 1.15 times
// --seconds, a run starts no further round (two always run, so --seconds 0
// gives exactly two).
//
// Extra flags: --reps N overrides the grid's Monte-Carlo repetitions,
// --hits N sets the timed cache hits per round, and --corrupt-store flips
// one byte of the reference store copy (the self-test uses it to prove a
// corrupted store is caught).

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <limits>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ulpdream/apps/app.hpp"
#include "ulpdream/apps/cs_app.hpp"
#include "ulpdream/campaign/columnar.hpp"
#include "ulpdream/campaign/result_store.hpp"
#include "ulpdream/campaign/session.hpp"
#include "ulpdream/campaign/spec.hpp"
#include "ulpdream/core/ecc_secded.hpp"
#include "ulpdream/core/factory.hpp"
#include "ulpdream/core/protected_buffer.hpp"
#include "ulpdream/cs/reconstruct.hpp"
#include "ulpdream/ecg/generator.hpp"
#include "ulpdream/mem/ber_model.hpp"
#include "ulpdream/mem/fault_map.hpp"
#include "ulpdream/serve/cache.hpp"
#include "ulpdream/serve/client.hpp"
#include "ulpdream/serve/daemon.hpp"
#include "ulpdream/sim/runner.hpp"
#include "ulpdream/util/cli.hpp"
#include "ulpdream/util/log.hpp"
#include "ulpdream/util/rng.hpp"
#include "ulpdream/util/stats.hpp"
#include "ulpdream/util/telemetry.hpp"

using namespace ulpdream;
namespace fs = std::filesystem;
namespace tel = util::telemetry;
using Clock = std::chrono::steady_clock;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Repetition loops always run this many times, whatever the time cap.
constexpr std::size_t kMinRounds = 2;
/// A run starts no further round past this many times --seconds.
constexpr double kCapFactor = 1.15;
/// Dark / metered / traced triples of the telemetry-overhead measurement.
constexpr std::size_t kOverheadReps = 5;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}
/// CPU time of every thread of the process so far. The guest kernel's
/// paravirtual steal accounting leaves out the time the host ran another
/// guest on our vCPU, which wall time counts.
double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }
/// CPU time of the calling thread so far.
double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

/// Steal share of the guest's busy CPU time since the last call (the
/// first call reads since boot), from /proc/stat; diagnostic only.
double steal_share() {
  static double last_busy = 0.0;
  static double last_steal = 0.0;
  std::ifstream is("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  is >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  const double busy = user + nice + system + irq + softirq + steal;
  const double share =
      busy > last_busy ? (steal - last_steal) / (busy - last_busy) : 0.0;
  last_busy = busy;
  last_steal = steal;
  return share;
}

// ---------------------------------------------------------------------------
// Workloads.

const std::vector<std::string> kPaperApps = {"dwt", "matrix_filter", "cs",
                                             "morph_filter", "delineation"};
const std::vector<std::string> kAllEmts = {"none", "dream", "ecc_secded",
                                           "dream_secded"};

struct Workload {
  std::string name;
  campaign::CampaignSpec grid;      ///< the 1-thread, N-thread and cold grid
  campaign::CampaignSpec superset;  ///< grid + one record: gap-fill and hits
  std::size_t rounds = 0;           ///< dark rounds of a --trace 0 run
};

/// The two grids of README.md. Repetitions are sized so one 1-thread
/// grid run takes 0.5-1 s on a 4-vCPU guest and the N-thread cold query
/// stays above 100x the daemon's 1 ms progress cadence. The round counts
/// fill about 47 s there on a calm host.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       std::size_t reps_override) {
  campaign::CampaignSpec spec;
  spec.voltages = campaign::CampaignSpec::voltage_range(0.50, 0.90, 0.05);
  spec.seed = seed;
  spec.records = {campaign::RecordAxis{}};
  std::size_t rounds = 0;
  if (name == "paper_grid") {
    spec.apps = kPaperApps;
    spec.emts = {"none", "dream", "ecc_secded"};
    spec.repetitions = 2;
    rounds = 34;
  } else if (name == "write_heavy") {
    spec.apps = {"dwt", "delineation"};
    spec.emts = kAllEmts;
    spec.records.clear();
    for (const ecg::Pathology p : campaign::parse_pathology_list("all")) {
      spec.records.push_back(campaign::RecordAxis{p, 1.0, 7});
    }
    spec.repetitions = 4;
    rounds = 37;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (paper_grid, write_heavy)");
  }
  if (reps_override != 0) spec.repetitions = reps_override;
  Workload w{name, spec.normalized(), {}, rounds};
  spec.records.push_back(
      campaign::RecordAxis{ecg::Pathology::kNormalSinus, 2.0, 7});
  w.superset = spec.normalized();
  return w;
}

// ---------------------------------------------------------------------------
// Output checks and small helpers.

/// Operations attempted and failed; every output check is one operation.
class Tally {
 public:
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::cerr << "perfbench: check failed: " << what << "\n";
    }
  }
  /// Grid items: each one attempted, each missing one failed.
  void items(const campaign::ResultStore& store) {
    const std::size_t total = store.spec().item_count();
    attempted_ += total;
    failed_ += total - std::min(total, store.items_done());
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

static_assert(sizeof(campaign::Sample) == 8 * sizeof(double),
              "Sample is compared bit for bit as eight doubles");

bool same_bits(const campaign::Sample& a, const campaign::Sample& b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Whether `superset` holds `prefix`'s items first, with the same samples
/// bit for bit.
bool same_prefix(const campaign::ColumnarStore& superset,
                 const campaign::ResultStore& prefix) {
  std::vector<campaign::Sample> samples;
  for (std::size_t pos = 0; pos < prefix.slot_items().size(); ++pos) {
    superset.samples_at(pos, samples);
    const auto want = prefix.slot_samples(pos);
    if (superset.item_at(pos) != prefix.slot_items()[pos] ||
        samples.size() != want.size() ||
        std::memcmp(samples.data(), want.data(), want.size_bytes()) != 0) {
      return false;
    }
  }
  return true;
}

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot read " + path.string());
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_file(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  if (!os) throw std::runtime_error("cannot write " + path.string());
}

/// save_columnar bytes of `store`, saved at `path`. Saves are
/// byte-deterministic, so equal bytes mean bit-identical stores.
std::vector<std::uint8_t> columnar_bytes(const campaign::ResultStore& store,
                                         const fs::path& path) {
  store.save_columnar(path.string());
  return read_file(path);
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

std::string rows_csv(const std::vector<campaign::AggregateRow>& rows) {
  std::ostringstream os;
  campaign::write_rows_csv(os, rows);
  return os.str();
}

/// Pool size N: the CPUs this process may run on (what `nproc` prints).
unsigned pool_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t counter(const tel::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

tel::HistogramSnapshot histogram(const tel::MetricsSnapshot& s,
                                 const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? tel::HistogramSnapshot{} : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool contains(const std::vector<std::string>& names, const std::string& n) {
  return std::find(names.begin(), names.end(), n) != names.end();
}

/// Fastest of `reps` calls of `fn`, in seconds.
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = kInf;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

/// One sample per repetition of a dark phase: its CPU time, which the
/// end-to-end metrics use, and its wall time, printed beside it.
struct Phase {
  util::QuantileSketch cpu;
  util::QuantileSketch wall;
  void add(double cpu_s, double wall_s) {
    cpu.add(cpu_s);
    wall.add(wall_s);
  }
};

void print_phase(const char* name, const Phase& p) {
  std::cout << "# " << name << ": cpu least " << p.cpu.quantile(0.0)
            << " median " << p.cpu.median() << "; wall least "
            << p.wall.quantile(0.0) << " median " << p.wall.median() << " ("
            << p.cpu.count() << " samples)\n";
}

// ---------------------------------------------------------------------------
// One whole-grid run through a fresh campaign::Session.

struct GridRun {
  double setup_s = 0.0;       ///< Session construction + submit, wall
  double setup_cpu_s = 0.0;   ///< the same, the calling thread's CPU time
  double submit_cpu_s = 0.0;  ///< submit alone, the calling thread's CPU
  double wall_s = 0.0;        ///< submit -> take, wall
  double cpu_s = 0.0;         ///< submit -> take, the process's CPU time
  campaign::ResultStore store;
  tel::MetricsSnapshot telemetry;  ///< the session's own activity
  /// Per grid item: the CPU time its worker spent since it finished its
  /// previous item (since it started, for its first), read in on_item.
  std::vector<double> item_cpu_s;
  std::vector<char> item_first;  ///< per grid item: its worker's first
};

GridRun run_grid(const campaign::CampaignSpec& spec, unsigned threads) {
  GridRun run;
  const double thread0 = thread_cpu_s();
  const auto t0 = Clock::now();
  campaign::Session session(energy::SystemEnergyModel(), threads);
  const double cpu1 = process_cpu_s();
  const double thread1 = thread_cpu_s();
  const auto t1 = Clock::now();
  campaign::SubmitOptions options;
  run.item_cpu_s.assign(spec.item_count(), 0.0);
  run.item_first.assign(spec.item_count(), 0);
  options.on_item = [&run](const campaign::CampaignHandle&,
                           const campaign::WorkItem& item,
                           std::span<const campaign::Sample>) {
    // Each Session starts its own workers, so `last` starts at 0 per run.
    thread_local double last = 0.0;
    const double now = thread_cpu_s();
    run.item_cpu_s[item.index] = now - last;
    run.item_first[item.index] = last == 0.0;
    last = now;
  };
  const campaign::CampaignHandle handle = session.submit(spec, options);
  const auto t2 = Clock::now();
  const double thread2 = thread_cpu_s();
  run.setup_cpu_s = thread2 - thread0;
  run.submit_cpu_s = thread2 - thread1;
  run.store = handle.take();
  const auto t3 = Clock::now();
  run.cpu_s = process_cpu_s() - cpu1;
  run.setup_s = seconds_between(t0, t2);
  run.wall_s = seconds_between(t1, t3);
  run.telemetry = session.telemetry();
  return run;
}

/// Each grid item's least CPU time over a run's repetitions of one phase.
/// An item takes 3-70 ms, short enough that some repetition of it lands
/// in a calm moment of the host.
class ItemMinima {
 public:
  /// With `skip_first`, leaves out each worker's first item, which also
  /// carries the worker's start-up: which items those are depends on
  /// which worker wakes first, so they do not compare across repetitions.
  void add(const GridRun& run, bool skip_first = false) {
    least_.resize(run.item_cpu_s.size(), kInf);
    for (std::size_t i = 0; i < least_.size(); ++i) {
      if (skip_first && run.item_first[i]) continue;
      least_[i] = std::min(least_[i], run.item_cpu_s[i]);
    }
  }
  /// Mean least CPU time of the items that have one.
  [[nodiscard]] double per_item() const {
    double total = 0.0;
    std::size_t count = 0;
    for (const double s : least_) {
      if (std::isfinite(s)) {
        total += s;
        ++count;
      }
    }
    return ratio(total, static_cast<double>(count));
  }

 private:
  std::vector<double> least_;
};

// ---------------------------------------------------------------------------
// The query daemon, in process, over its Unix socket.

/// Progress cadence of the benchmark's daemon. Daemon::answer sleeps this
/// long between completion polls, so cold and gap-fill answers round up
/// to it; 1 ms keeps that under 1% of every workload's cold query.
constexpr std::size_t kProgressEveryMs = 1;
constexpr std::size_t kWarmupHits = 10;
/// Hits per CPU-time sample: 5-30 ms of work, short enough that some
/// windows land in calm moments of the host.
constexpr std::size_t kHitWindow = 10;
/// Rounds that also run a cold and a gap-fill query on a fresh daemon.
constexpr std::size_t kQueryRounds = 3;

/// A serve::Daemon answering on its own thread while this object lives;
/// the destructor stops and joins it on every path.
class ServedDaemon {
 public:
  ServedDaemon(const fs::path& dir, unsigned threads,
               std::size_t progress_every_ms)
      : daemon_(options(dir, threads, progress_every_ms)),
        thread_([this] {
          try {
            (void)daemon_.run();
          } catch (const std::exception& e) {
            std::cerr << "perfbench: daemon: " << e.what() << "\n";
          }
        }) {}
  ~ServedDaemon() {
    daemon_.request_stop();
    thread_.join();
  }
  ServedDaemon(const ServedDaemon&) = delete;
  ServedDaemon& operator=(const ServedDaemon&) = delete;

  serve::Daemon* operator->() { return &daemon_; }

 private:
  static serve::Daemon::Options options(const fs::path& dir, unsigned threads,
                                        std::size_t progress_every_ms) {
    fs::create_directories(dir);
    serve::Daemon::Options o;
    // Relative to the working directory: sun_path holds only 108 bytes.
    o.listen = "unix:" + (dir / "q.sock").string();
    o.cache_dir = (dir / "cache").string();
    o.threads = threads;
    o.progress_every_ms = progress_every_ms;
    return o;
  }

  serve::Daemon daemon_;
  std::thread thread_;
};

/// What the daemon's answers must equal, computed in process.
struct Expected {
  std::vector<std::uint8_t> grid_bytes;      ///< 1-thread save_columnar
  std::vector<std::uint8_t> superset_bytes;  ///< in-process superset save
  std::string superset_rows;                 ///< write_rows_csv(aggregate)
};

struct DaemonRun {
  double cold_s = kInf;
  double cold_cpu_s = kInf;
  double gapfill_s = kInf;
  double gapfill_cpu_s = kInf;
  std::vector<std::uint8_t> gapfill_bytes;
};

/// One fresh daemon and cache: a cold query, then a gap-fill query, both
/// asking for rows and store bytes (as `campaign query --csv --store-out`
/// does).
DaemonRun run_daemon(const Workload& w, const Expected& expect,
                     unsigned threads, const fs::path& dir, Tally& tally) {
  DaemonRun run;
  try {
    ServedDaemon served(dir, threads, kProgressEveryMs);
    serve::Client client = serve::Client::connect(served->endpoint());
    serve::Client::QueryOptions full;
    full.want_rows = true;

    double cpu0 = process_cpu_s();
    auto t0 = Clock::now();
    const serve::Result cold = client.query(w.grid, full);
    run.cold_s = seconds_since(t0);
    run.cold_cpu_s = process_cpu_s() - cpu0;
    tally.check(cold.status == serve::CacheStatus::kCold &&
                    cold.store_bytes == expect.grid_bytes,
                "daemon cold store == 1-thread store bytes");

    cpu0 = process_cpu_s();
    t0 = Clock::now();
    serve::Result gap = client.query(w.superset, full);
    run.gapfill_s = seconds_since(t0);
    run.gapfill_cpu_s = process_cpu_s() - cpu0;
    tally.check(gap.status == serve::CacheStatus::kGapFill &&
                    gap.items_executed == w.superset.item_count() -
                                              w.grid.item_count() &&
                    gap.store_bytes == expect.superset_bytes,
                "daemon gap-fill store == in-process superset store bytes");
    run.gapfill_bytes = std::move(gap.store_bytes);
  } catch (const std::exception& e) {
    tally.check(false, std::string("daemon query: ") + e.what());
  }
  fs::remove_all(dir);
  return run;
}

/// `count` exact hits on the superset asking for rows only (the CLI
/// default), in a closed loop on `client`; adds each latency in ms to
/// every sketch of `sinks` (none for warm-up).
void hit_batch(serve::Client& client, const Workload& w,
               const Expected& expect, std::size_t count,
               std::initializer_list<util::QuantileSketch*> sinks,
               Tally& tally) {
  serve::Client::QueryOptions rows_only;
  rows_only.want_store = false;
  rows_only.want_rows = true;
  try {
    for (std::size_t i = 0; i < count; ++i) {
      const auto t0 = Clock::now();
      const serve::Result hit = client.query(w.superset, rows_only);
      const double ms = seconds_since(t0) * 1e3;
      for (util::QuantileSketch* sink : sinks) sink->add(ms);
      tally.check(hit.status == serve::CacheStatus::kHit &&
                      hit.rows_csv == expect.superset_rows,
                  "daemon hit rows == in-process aggregate CSV");
    }
  } catch (const std::exception& e) {
    tally.check(false, std::string("daemon hit: ") + e.what());
  }
}

/// Wall time of one cold query on a fresh daemon polling every
/// `progress_every_ms`.
double cold_query_s(const Workload& w, const Expected& expect,
                    unsigned threads, const fs::path& dir,
                    std::size_t progress_every_ms, Tally& tally) {
  double s = kInf;
  try {
    ServedDaemon served(dir, threads, progress_every_ms);
    serve::Client client = serve::Client::connect(served->endpoint());
    const auto t0 = Clock::now();
    const serve::Result cold = client.query(w.grid);
    s = seconds_since(t0);
    tally.check(cold.store_bytes == expect.grid_bytes,
                "daemon cold store == 1-thread store bytes");
  } catch (const std::exception& e) {
    tally.check(false, std::string("daemon query: ") + e.what());
  }
  fs::remove_all(dir);
  return s;
}

// ---------------------------------------------------------------------------
// Metrics output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_metrics(const std::vector<Metric>& metrics) {
  std::cout.precision(17);
  for (const Metric& m : metrics) {
    std::cout << m.name << " " << m.value << " " << m.unit << "\n";
  }
}

void print_result_line(bool correct, const Tally& tally,
                       const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << tally.attempted()
     << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// ---------------------------------------------------------------------------
// The traced pass: per-layer attribution from outside the program.

/// Per-call timer that also records a trace span around the call.
template <typename Fn>
double timed_span(const char* span_name, Fn&& fn) {
  const auto t0 = Clock::now();
  {
    const tel::TraceSpan span(span_name);
    fn();
  }
  return seconds_since(t0);
}

/// What the replay leaves for the codec probe.
struct Replay {
  std::vector<ecg::Record> records;
  std::vector<mem::FaultMap> maps;
};

/// Replays one slice of the grid serially with the same calls Session
/// makes (records, components, ceilings, FaultMap::random from the item
/// seed, run_once per (app, EMT)), timing each call and comparing every
/// sample bit for bit with `store`, the Session's.
Replay replay(const campaign::CampaignSpec& spec,
              const campaign::ResultStore& store, std::vector<Metric>& out,
              Tally& tally) {
  const std::size_t n_apps = spec.apps.size();
  const std::size_t n_emts = spec.emts.size();

  double generate_s = 0.0;
  std::vector<ecg::Record> records;
  for (const campaign::RecordAxis& axis : spec.records) {
    ecg::GeneratorConfig gen;
    gen.fs_hz = spec.fs_hz;
    gen.duration_s = spec.duration_s;
    gen.pathology = axis.pathology;
    gen.seed = axis.seed;
    gen.noise.baseline_wander_mv *= axis.noise_scale;
    gen.noise.powerline_mv *= axis.noise_scale;
    gen.noise.emg_std_mv *= axis.noise_scale;
    generate_s += timed_span("ecg.generate_record", [&] {
      records.push_back(ecg::generate_record(gen));
    });
    records.back().name = axis.label();
  }

  double make_s = 0.0;
  std::vector<std::unique_ptr<apps::BioApp>> app_objs;
  for (const std::string& name : spec.apps) {
    make_s += timed_span("apps.make_app",
                         [&] { app_objs.push_back(apps::make_app(name)); });
  }
  std::vector<std::unique_ptr<core::Emt>> emt_objs;
  int map_bits = core::EccSecDed::kPayloadBits;
  for (const std::string& name : spec.emts) {
    emt_objs.push_back(core::make_emt(name));
    map_bits = std::max(map_bits, emt_objs.back()->payload_bits());
  }
  const auto ber_model = mem::make_ber_model(spec.ber_model);

  // References first, so the ceilings and run_once calls below hit the
  // runner's cache exactly as a warmed-up pool worker does.
  sim::ExperimentRunner runner;
  double reference_s = 0.0;
  double ceiling_s = 0.0;
  for (std::size_t ri = 0; ri < records.size(); ++ri) {
    for (std::size_t ai = 0; ai < n_apps; ++ai) {
      reference_s += timed_span("sim.reference", [&] {
        (void)runner.reference(*app_objs[ai], records[ri]);
      });
      double ceiling = 0.0;
      ceiling_s += timed_span("sim.max_snr_db", [&] {
        ceiling = runner.max_snr_db(*app_objs[ai], records[ri]);
      });
      const double stored = store.max_snr_db(ri, ai);
      tally.check(std::memcmp(&ceiling, &stored, sizeof ceiling) == 0,
                  "replayed SNR ceiling == store ceiling");
    }
  }

  std::vector<const char*> run_spans;
  for (const auto& app : app_objs) {
    run_spans.push_back(tel::intern("apps." + app->name() + ".run_once"));
  }

  // One item per (record, voltage): rep 0 of every cell, so the slice
  // covers the whole voltage range.
  std::vector<mem::FaultMap> maps;
  std::vector<double> run_s(n_apps, 0.0);
  std::vector<double> reads(n_apps, 0.0);
  std::vector<double> writes(n_apps, 0.0);
  double faultmap_s = 0.0;
  double faults = 0.0;
  double item_s = 0.0;
  std::size_t n_items = 0;
  const auto slots = store.slot_items();
  for (const campaign::WorkItem& item : campaign::expand(spec)) {
    if (item.rep_index != 0) continue;
    const tel::TraceSpan item_span("replay.item");
    const double v = spec.voltages[item.voltage_index];
    const ecg::Record& record = records[item.record_index];
    util::Xoshiro256 rng(item.seed);
    const double map_s = timed_span("mem.FaultMap::random", [&] {
      maps.push_back(mem::FaultMap::random(mem::MemoryGeometry::kWords16,
                                           map_bits, ber_model->ber(v), rng));
    });
    const mem::FaultMap& map = maps.back();
    faultmap_s += map_s;
    faults += static_cast<double>(map.fault_count());
    item_s += map_s;

    const std::size_t slot = static_cast<std::size_t>(
        std::lower_bound(slots.begin(), slots.end(), item.index) -
        slots.begin());
    const auto stored = store.slot_samples(slot);
    for (std::size_t ai = 0; ai < n_apps; ++ai) {
      for (std::size_t ei = 0; ei < n_emts; ++ei) {
        sim::RunResult r;
        const double s = timed_span(run_spans[ai], [&] {
          r = runner.run_once(*app_objs[ai], record, *emt_objs[ei], &map, v);
        });
        run_s[ai] += s;
        item_s += s;
        campaign::Sample sample;
        sample.snr_db = r.snr_db;
        sample.energy = r.energy;
        sample.corrected_words = static_cast<double>(r.counters.corrected_words);
        sample.detected_uncorrectable =
            static_cast<double>(r.counters.detected_uncorrectable);
        tally.check(same_bits(sample, stored[ai * n_emts + ei]),
                    "replayed sample == Session store sample (item " +
                        std::to_string(item.index) + ")");
      }
      // Access counts of the data array, from one untimed direct run.
      core::MemorySystem system(*emt_objs.front());
      system.attach_faults(&map);
      (void)app_objs[ai]->run(system, record);
      reads[ai] += static_cast<double>(system.data().stats().reads);
      writes[ai] += static_cast<double>(system.data().stats().writes);
    }
    ++n_items;
  }
  const double items = static_cast<double>(n_items);
  const double item_ms = item_s * 1e3 / items;

  // CS reconstruction, timed per CsReconstructor::reconstruct call on the
  // measurements of the first record's blocks (OMP always runs its full
  // atom budget at this tolerance, so the cost does not depend on faults).
  double reconstruct_ms = 0.0;
  if (contains(spec.apps, "cs")) {
    const apps::CsAppConfig cfg;
    const cs::CsReconstructor reconstructor(cfg.cs);
    const linalg::Matrix phi = reconstructor.phi().to_dense();
    std::vector<std::vector<double>> ys;
    for (std::size_t b = 0; b < cfg.blocks; ++b) {
      std::vector<double> x(cfg.cs.block_n);
      for (std::size_t c = 0; c < x.size(); ++c) {
        x[c] = static_cast<double>(records.front().samples[b * x.size() + c]);
      }
      ys.push_back(phi.multiply(x));
    }
    double total_s = 0.0;
    constexpr int kCalls = 8;
    for (int i = 0; i < kCalls; ++i) {
      total_s += timed_span("cs.reconstruct", [&] {
        (void)reconstructor.reconstruct(ys[i % ys.size()]);
      });
    }
    reconstruct_ms = total_s * 1e3 / kCalls;
  }
  const double cs_runs_per_item =
      contains(spec.apps, "cs") ? static_cast<double>(n_emts) : 0.0;
  out.push_back({"cs.reconstruct_ms", reconstruct_ms, "ms"});
  out.push_back({"cs.share",
                 ratio(reconstruct_ms * static_cast<double>(
                                            apps::CsAppConfig{}.blocks) *
                           cs_runs_per_item,
                       item_ms),
                 "1"});

  for (const std::string& app : kPaperApps) {
    double ms = 0.0;
    for (std::size_t ai = 0; ai < n_apps; ++ai) {
      if (spec.apps[ai] == app) {
        ms = run_s[ai] * 1e3 / (items * static_cast<double>(n_emts));
      }
    }
    out.push_back({"apps." + app + ".run_ms", ms, "ms"});
  }
  out.push_back({"apps.make_ms", make_s * 1e3, "ms"});
  out.push_back({"mem.faultmap_ms", faultmap_s * 1e3 / items, "ms"});
  out.push_back({"mem.faultmap_share", ratio(faultmap_s * 1e3 / items, item_ms),
                 "1"});
  out.push_back({"mem.faults_per_map", faults / items, "count"});
  for (const std::string& app : kPaperApps) {
    double r = 0.0;
    double wr = 0.0;
    for (std::size_t ai = 0; ai < n_apps; ++ai) {
      if (spec.apps[ai] == app) {
        r = reads[ai] / items;
        wr = writes[ai] / items;
      }
    }
    out.push_back({"mem." + app + ".reads_per_run", r, "count"});
    out.push_back({"mem." + app + ".writes_per_run", wr, "count"});
  }
  out.push_back({"sim.reference_ms", reference_s * 1e3, "ms"});
  out.push_back({"sim.ceiling_ms", ceiling_s * 1e3, "ms"});
  out.push_back({"ecg.generate_ms", generate_s * 1e3, "ms"});

  std::cout << "# layer shares of a replayed item (" << item_ms << " ms):";
  for (std::size_t ai = 0; ai < n_apps; ++ai) {
    std::cout << " " << spec.apps[ai] << "=" << ratio(run_s[ai], item_s);
  }
  std::cout << " FaultMap::random=" << ratio(faultmap_s, item_s) << "\n";
  return Replay{std::move(records), std::move(maps)};
}

/// Direct MemorySystem::store_block / load_block calls at the workload's
/// mean block length (codec.<emt>.* counters of the N-thread run) over
/// the replay's fault maps; the fastest pass's ns per word.
void codec_probe(const campaign::CampaignSpec& spec,
                 const tel::MetricsSnapshot& t, const Replay& replayed,
                 std::vector<Metric>& out) {
  constexpr std::size_t kWords = 4096;
  constexpr int kPasses = 8;
  const double items = static_cast<double>(spec.item_count());
  const std::vector<mem::FaultMap>& maps = replayed.maps;
  const ecg::Record& record = replayed.records.front();
  std::vector<fixed::Sample> src(kWords);
  for (std::size_t i = 0; i < kWords; ++i) {
    src[i] = record.samples[i % record.samples.size()];
  }
  std::vector<fixed::Sample> dst(kWords);
  std::uint64_t checksum = 0;
  for (const std::string& name : kAllEmts) {
    const std::string prefix = "codec." + name + ".";
    const double dec_words = static_cast<double>(counter(t, prefix + "decode_words"));
    const double enc_words = static_cast<double>(counter(t, prefix + "encode_words"));
    double dec_ns = 0.0;
    double enc_ns = 0.0;
    if (contains(spec.emts, name)) {
      const auto block_len = [](double words, std::uint64_t calls) {
        return std::max<std::size_t>(
            1, static_cast<std::size_t>(std::llround(ratio(words, double(calls)))));
      };
      const std::size_t dec_len =
          block_len(dec_words, counter(t, prefix + "decode_calls"));
      const std::size_t enc_len =
          block_len(enc_words, counter(t, prefix + "encode_calls"));
      const auto emt = core::make_emt(name);
      core::MemorySystem system(*emt);
      dec_ns = kInf;
      enc_ns = kInf;
      for (int pass = 0; pass < kPasses; ++pass) {
        double enc_s = 0.0;
        double dec_s = 0.0;
        for (const mem::FaultMap& map : maps) {
          system.attach_faults(&map);
          enc_s += timed_span("core.store_block", [&] {
            for (std::size_t off = 0; off < kWords; off += enc_len) {
              system.store_block(off, std::span<const fixed::Sample>(src).subspan(
                                          off, std::min(enc_len, kWords - off)));
            }
          });
          dec_s += timed_span("core.load_block", [&] {
            for (std::size_t off = 0; off < kWords; off += dec_len) {
              system.load_block(off, std::span<fixed::Sample>(dst).subspan(
                                         off, std::min(dec_len, kWords - off)));
            }
          });
          for (const fixed::Sample s : dst) {
            checksum = checksum * 31 + static_cast<std::uint16_t>(s);
          }
        }
        const double words = static_cast<double>(kWords * maps.size());
        enc_ns = std::min(enc_ns, enc_s * 1e9 / words);
        dec_ns = std::min(dec_ns, dec_s * 1e9 / words);
      }
    }
    out.push_back({"core." + name + ".decode_ns_per_word", dec_ns, "ns"});
    out.push_back({"core." + name + ".encode_ns_per_word", enc_ns, "ns"});
    out.push_back({"core." + name + ".decode_words_per_item", dec_words / items,
                   "count"});
    out.push_back({"core." + name + ".encode_words_per_item", enc_words / items,
                   "count"});
  }
  std::cout << "# codec probe checksum " << checksum << "\n";
}

/// The dark / metered / traced CPU time of the same 1-thread grid,
/// interleaved over kOverheadReps triples, each from its items' least CPU
/// times: what --metrics-out and --trace cost a run.
void telemetry_overheads(const Workload& w,
                         const std::vector<std::uint8_t>& grid_bytes,
                         Clock::time_point cap, std::vector<Metric>& out,
                         Tally& tally) {
  ItemMinima dark;
  ItemMinima metered;
  ItemMinima traced;
  const auto measure = [&](ItemMinima& least) {
    GridRun run = run_grid(w.grid, 1);
    tally.items(run.store);
    tally.check(columnar_bytes(run.store, "overhead.ulpdcol") == grid_bytes,
                "telemetry does not change the store");
    least.add(run);
  };
  for (std::size_t k = 0; k < kOverheadReps; ++k) {
    if (k >= kMinRounds && Clock::now() > cap) break;
    measure(dark);
    tel::set_hot_timing(true);
    measure(metered);
    tel::set_hot_timing(false);
    tel::trace::start();
    measure(traced);
    tel::trace::stop();
    tel::trace::reset();
  }
  out.push_back({"util.metered_overhead_frac",
                 metered.per_item() / dark.per_item() - 1.0, "1"});
  out.push_back({"util.traced_overhead_frac",
                 traced.per_item() / dark.per_item() - 1.0, "1"});
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const std::set<std::string> known = {"workload", "seed", "seconds", "trace",
                                       "reps", "hits", "corrupt-store"};
  for (const std::string& key : cli.keys()) {
    if (!known.count(key)) {
      std::cerr << "perfbench: unknown flag --" << key << "\n";
      return 2;
    }
  }
  if (!cli.has("workload") || !cli.has("seed")) {
    std::cerr << "perfbench: --workload NAME and --seed N are required\n";
    return 2;
  }
  try {
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 0));
    const double seconds = std::max(0.0, cli.get_double("seconds", 50.0));
    const auto cap =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kCapFactor * seconds));
    const bool traced = cli.get_int("trace", 0) != 0;
    const auto hits = static_cast<std::size_t>(
        std::max<std::int64_t>(1, cli.get_int("hits", 200)));
    const Workload w = make_workload(
        cli.get("workload", ""), seed,
        static_cast<std::size_t>(std::max<std::int64_t>(0, cli.get_int("reps", 0))));
    const unsigned n = pool_threads();
    Tally tally;
    util::set_log_level(util::LogLevel::kWarn);  // one daemon per round

    std::cout << "# perfbench workload=" << w.name << " seed=" << seed
              << " threads=" << n << " grid_items=" << w.grid.item_count()
              << " superset_items=" << w.superset.item_count()
              << " progress_every_ms=" << kProgressEveryMs << "\n";

    // Warm-up and the in-process answers the daemon must match: the
    // superset grid at N threads, its bytes and its aggregate rows.
    Expected expect;
    const GridRun superset = run_grid(w.superset, n);
    tally.items(superset.store);
    expect.superset_bytes = columnar_bytes(superset.store, "superset.ulpdcol");
    expect.superset_rows = rows_csv(superset.store.aggregate());

    // The hit loop's daemon and its one connection live for the whole run;
    // the superset's first query fills its cache.
    ServedDaemon hit_daemon("hits", n, kProgressEveryMs);
    serve::Client hit_client = serve::Client::connect(hit_daemon->endpoint());
    tally.check(hit_client.query(w.superset).store_bytes ==
                    expect.superset_bytes,
                "daemon superset store == in-process superset store bytes");
    hit_batch(hit_client, w, expect, kWarmupHits, {}, tally);

    // Dark phases, interleaved round by round: a 1-thread grid, an N-thread
    // grid, in the first rounds a cold and a gap-fill query, then windows
    // of hits. The round count is fixed, so every estimator gets the same
    // number of samples however fast rounds run.
    const std::size_t rounds = traced ? kMinRounds : w.rounds;
    campaign::ResultStore ref;
    GridRun least_1t;  // the repetitions that took the least CPU time
    GridRun least_nt;
    least_1t.cpu_s = least_nt.cpu_s = kInf;
    Phase grid_1t;
    Phase grid_nt;
    Phase setup;
    Phase cold;
    Phase gapfill;
    Phase hit;  // per hit; one sample per window of kHitWindow hits
    util::QuantileSketch all_hits;  // every hit's wall latency, pooled
    double least_submit_cpu_s = kInf;
    ItemMinima items_1t;
    ItemMinima items_nt;
    (void)steal_share();
    std::size_t round = 0;
    for (; round < rounds; ++round) {
      if (round >= kMinRounds && Clock::now() > cap) {
        std::cout << "# time cap reached after " << round << " rounds\n";
        break;
      }
      GridRun one = run_grid(w.grid, 1);
      tally.items(one.store);
      const std::vector<std::uint8_t> one_bytes =
          columnar_bytes(one.store, "grid_1t.ulpdcol");
      if (round == 0) {
        ref = one.store;
        expect.grid_bytes = one_bytes;
        std::cout << "# store digest " << w.name << " fnv1a64="
                  << std::hex << fnv1a(expect.grid_bytes) << std::dec
                  << " bytes=" << expect.grid_bytes.size() << "\n";
        if (cli.has("corrupt-store")) {
          expect.grid_bytes[expect.grid_bytes.size() - 8] ^= 0x01;
        }
      }
      tally.check(one_bytes == expect.grid_bytes, "1-thread store repeats");
      grid_1t.add(one.cpu_s, one.wall_s);
      items_1t.add(one);
      setup.add(one.setup_cpu_s, one.setup_s);
      least_submit_cpu_s = std::min(least_submit_cpu_s, one.submit_cpu_s);

      GridRun many = run_grid(w.grid, n);
      tally.items(many.store);
      tally.check(columnar_bytes(many.store, "grid_nt.ulpdcol") ==
                      expect.grid_bytes,
                  "N-thread store bytes == 1-thread store bytes");
      grid_nt.add(many.cpu_s, many.wall_s);
      items_nt.add(many, /*skip_first=*/true);
      setup.add(many.setup_cpu_s, many.setup_s);
      least_submit_cpu_s = std::min(least_submit_cpu_s, many.submit_cpu_s);
      if (many.cpu_s < least_nt.cpu_s) least_nt = std::move(many);

      // Cold and gap-fill queries, each pair on a fresh daemon and cache,
      // in the first rounds only: they feed output checks and per-layer
      // figures, and the rounds' time is better spent on grid items.
      if (round < kQueryRounds) {
        const DaemonRun d = run_daemon(w, expect, n, "daemon", tally);
        if (round == 0 && !d.gapfill_bytes.empty()) {
          write_file("gapfill.ulpdcol", d.gapfill_bytes);
          tally.check(same_prefix(campaign::ColumnarStore::open(
                                      "gapfill.ulpdcol", w.superset),
                                  ref),
                      "gap-fill prefix items == cold store items");
        }
        cold.add(d.cold_cpu_s, d.cold_s);
        gapfill.add(d.gapfill_cpu_s, d.gapfill_s);
      }

      for (std::size_t done = 0; done < hits; done += kHitWindow) {
        util::QuantileSketch window;
        const std::size_t count = std::min(kHitWindow, hits - done);
        const double cpu0 = process_cpu_s();
        hit_batch(hit_client, w, expect, count, {&window, &all_hits}, tally);
        // The daemon's handler thread is charged its CPU time when it next
        // blocks; let it get there before reading the process clock.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        hit.add((process_cpu_s() - cpu0) * 1e3 / static_cast<double>(count),
                window.median());
      }
      std::cout << "# round " << round << ": 1t cpu_s=" << one.cpu_s
                << " wall_s=" << one.wall_s << "; host steal share "
                << steal_share() << "\n";
      if (one.cpu_s < least_1t.cpu_s) least_1t = std::move(one);
    }
    const double items = static_cast<double>(w.grid.item_count());
    std::cout << "# rounds=" << round << " hit_samples=" << all_hits.count()
              << "\n";
    std::cout << "# item CPU from each item's least: 1t "
              << items_1t.per_item() << " s, N-thread " << items_nt.per_item()
              << " s\n";
    print_phase("grid_1t_s", grid_1t);
    print_phase("grid_nt_s", grid_nt);
    print_phase("setup_s", setup);
    print_phase("query_cold_s", cold);
    print_phase("query_gapfill_s", gapfill);
    print_phase("query_hit_ms", hit);

    // What a wall clock shows for the same phases. On a shared host these
    // measure the neighbours as much as the program, so they are not
    // end-to-end metrics; the traced pass reports them per layer.
    const std::vector<Metric> wall = {
        {"wall.items_per_s_1t", items / grid_1t.wall.quantile(0.0), "1/s"},
        {"wall.items_per_s_nt", items / grid_nt.wall.quantile(0.0), "1/s"},
        {"wall.query_cold_s", cold.wall.quantile(0.0), "s"},
        {"wall.query_gapfill_s", gapfill.wall.quantile(0.0), "s"},
        {"wall.query_hit_p50_ms", all_hits.median(), "ms"},
        {"wall.query_hit_p99_ms", all_hits.quantile(0.99), "ms"},
        {"serve.query_cold_cpu_s", cold.cpu.quantile(0.0), "s"},
        {"serve.query_gapfill_cpu_s", gapfill.cpu.quantile(0.0), "s"},
    };

    std::vector<Metric> metrics;
    if (!traced) {
      for (const Metric& m : wall) {
        std::cout << "# " << m.name << " " << m.value << " " << m.unit << "\n";
      }
      metrics = {
          {"items_per_cpu_s_1t", 1.0 / items_1t.per_item(), "1/s"},
          {"items_per_cpu_s_nt", 1.0 / items_nt.per_item(), "1/s"},
          {"setup_s", setup.cpu.quantile(0.0), "s"},
          {"peak_rss_mb", peak_rss_mb(), "MB"},
          {"query_hit_cpu_ms", hit.cpu.quantile(0.0), "ms"},
      };
    } else {
      metrics = wall;
      telemetry_overheads(w, expect.grid_bytes, cap, metrics, tally);

      tel::trace::start();
      const Replay replayed = replay(w.grid, ref, metrics, tally);
      codec_probe(w.grid, least_nt.telemetry, replayed, metrics);

      // Store and serve functions, called directly on the workload's
      // completed stores; fastest of five each.
      constexpr int kReps = 5;
      metrics.push_back({"campaign.submit_ms", least_submit_cpu_s * 1e3, "ms"});
      metrics.push_back(
          {"campaign.item_ms",
           histogram(least_1t.telemetry, "session.item_ns").mean() / 1e6,
           "ms"});
      metrics.push_back(
          {"campaign.save_columnar_ms",
           best_of(kReps, [&] {
             const tel::TraceSpan span("campaign.save_columnar");
             ref.save_columnar("save_probe.ulpdcol");
           }) * 1e3,
           "ms"});
      metrics.push_back({"campaign.store_bytes",
                         static_cast<double>(fs::file_size("save_probe.ulpdcol")),
                         "bytes"});
      std::vector<campaign::AggregateRow> rows;
      std::string csv;
      metrics.push_back({"campaign.open_ms", best_of(kReps, [&] {
                           const tel::TraceSpan span("campaign.open");
                           (void)campaign::ColumnarStore::open(
                               "superset.ulpdcol", w.superset);
                         }) * 1e3,
                         "ms"});
      const auto opened =
          campaign::ColumnarStore::open("superset.ulpdcol", w.superset);
      metrics.push_back({"campaign.aggregate_ms", best_of(kReps, [&] {
                           const tel::TraceSpan span("campaign.aggregate");
                           rows = opened.aggregate();
                         }) * 1e3,
                         "ms"});
      metrics.push_back({"campaign.rows_csv_ms", best_of(kReps, [&] {
                           const tel::TraceSpan span("campaign.write_rows_csv");
                           csv = rows_csv(rows);
                         }) * 1e3,
                         "ms"});
      tally.check(csv == expect.superset_rows,
                  "streamed aggregate CSV == in-memory aggregate CSV");

      const GridRun& nt = least_nt;
      metrics.push_back(
          {"util.pool_busy_frac",
           ratio(static_cast<double>(counter(nt.telemetry, "workpool.busy_ns")),
                 n * nt.wall_s * 1e9),
           "1"});
      metrics.push_back(
          {"util.claim_wait_us",
           histogram(nt.telemetry, "workpool.claim_wait_ns").mean() / 1e3,
           "us"});
      metrics.push_back(
          {"mem.fault_patch_words_per_item",
           static_cast<double>(counter(nt.telemetry, "mem.fault_patch_words")) /
               items,
           "count"});

      const auto cold_store =
          campaign::ColumnarStore::open("grid_1t.ulpdcol", w.grid);
      metrics.push_back({"serve.adopt_prefix_ms", best_of(kReps, [&] {
                           const tel::TraceSpan span("serve.adopt_prefix");
                           (void)serve::adopt_prefix(cold_store, w.superset);
                         }) * 1e3,
                         "ms"});
      {
        serve::ResultCache cache(serve::ResultCache::Options{"probe_cache"});
        metrics.push_back({"serve.cache_insert_ms", best_of(kReps, [&] {
                             const tel::TraceSpan span("serve.cache_insert");
                             (void)cache.insert(w.grid, ref);
                           }) * 1e3,
                           "ms"});
      }
      fs::remove_all("probe_cache");
      metrics.push_back(
          {"serve.hit_server_ms",
           histogram(hit_daemon->telemetry(), "serve.query.hit_ns").mean() / 1e6,
           "ms"});
      tel::trace::stop();

      // The hidden cost of Daemon::answer's sleep-poll: cold queries at the
      // shipped cadence beside cold queries at the benchmark's, fastest of
      // three each.
      double shipped = kInf;
      double fast = kInf;
      for (int i = 0; i < 3; ++i) {
        shipped = std::min(
            shipped, cold_query_s(w, expect, n, "poll",
                                  serve::Daemon::Options{}.progress_every_ms,
                                  tally));
        fast = std::min(fast, cold_query_s(w, expect, n, "poll",
                                           kProgressEveryMs, tally));
      }
      metrics.push_back({"serve.poll_idle_ms", (shipped - fast) * 1e3, "ms"});
      metrics.push_back({"serve.progress_every_ms",
                         static_cast<double>(kProgressEveryMs), "ms"});

      const std::string trace_path = "trace_" + w.name + ".json";
      std::ofstream trace_os(trace_path);
      tel::trace::write_chrome_json(trace_os);
      std::cout << "# chrome trace " << fs::absolute(trace_path).string()
                << "\n";
    }

    const bool correct = tally.failed() == 0;
    print_metrics(metrics);
    std::cout << "failed_ratio "
              << ratio(static_cast<double>(tally.failed()),
                       static_cast<double>(tally.attempted()))
              << " 1\n";
    print_result_line(correct, tally, metrics);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
