// Declarative experiment campaigns from the command line: describe a grid
// (apps x EMTs x voltages x records x repetitions), execute it on the
// async session runtime — whole, one shard of a split, or resuming an
// interrupted run from a checkpoint — and export grouped aggregates as a
// table, CSV and/or JSON. Results are bit-identical for any --threads
// value, any --shard split and any checkpoint/resume split (see
// tests/campaign_test.cpp and tests/session_test.cpp). Run with --help
// for the full flag reference.
//
//   # whole grid, live progress:
//   campaign --apps dwt,cs --reps 30 --threads 0 --progress --csv out.csv
//
//   # long grid with crash insurance: checkpoint the raw store every 10
//   # items, and complete the missing items after an interruption:
//   campaign <axes...> --checkpoint-every 10 --store-out run.ulpdcol
//   campaign <axes...> --resume run.ulpdcol --store-out run.ulpdcol
//            --csv out.csv
//
//   # sharded execution across processes, then merge:
//   campaign <axes...> --shard 0/3 --store-out shard0.ulpdcol
//   campaign <axes...> --shard 1/3 --store-out shard1.ulpdcol
//   campaign <axes...> --shard 2/3 --store-out shard2.ulpdcol
//   campaign <axes...>
//            --merge-stores shard0.ulpdcol,shard1.ulpdcol,shard2.ulpdcol
//            --csv merged.csv

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "ulpdream/campaign/columnar.hpp"
#include "ulpdream/campaign/session.hpp"
#include "ulpdream/serve/client.hpp"
#include "ulpdream/serve/daemon.hpp"
#include "ulpdream/serve/worker.hpp"
#include "ulpdream/util/cli.hpp"
#include "ulpdream/util/log.hpp"
#include "ulpdream/util/table.hpp"
#include "ulpdream/util/telemetry.hpp"

using namespace ulpdream;

namespace {

/// A problem with how the command line was written (unknown flag or
/// verb, missing required flag, unparseable value) — exits 2, distinct
/// from runtime failures (exit 1), so scripts can tell "fix your
/// invocation" from "the run failed".
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Runs `f`, reclassifying std::invalid_argument as UsageError: the
/// parse helpers below and the axis/registry parsers all signal bad
/// flag *values* with invalid_argument, and a bad value is a usage
/// problem, not a runtime one.
template <typename F>
decltype(auto) parse_flags(F&& f) {
  try {
    return f();
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
}

/// A count flag: `def` when absent, values below `floor` clamp up to it,
/// and a malformed value is a usage error naming the flag.
std::size_t count_flag(const util::Cli& cli, const std::string& key,
                       std::int64_t def, std::int64_t floor = 0) {
  return static_cast<std::size_t>(std::max<std::int64_t>(
      floor, parse_flags([&] { return cli.get_int(key, def); })));
}

/// Every flag the grid axes understand (shared by a local run and query).
const std::vector<std::string>& axis_flags() {
  static const std::vector<std::string> flags = {
      "apps", "emts",        "vmin", "vmax", "step",      "pathologies",
      "noise", "record-seed", "reps", "seed", "ber-model"};
  return flags;
}

/// Rejects any given flag outside `allowed` (+ the axis flags when the
/// verb describes a grid), naming the offending flag. Every verb calls
/// this first, so a typo — or an axis flag daemon/work would ignore —
/// fails fast with exit 2 instead of being silently dropped.
void enforce_flags(const util::Cli& cli,
                   const std::vector<std::string>& allowed,
                   const std::string& verb, bool grid_axes) {
  for (const std::string& key : cli.keys()) {
    if (std::find(allowed.begin(), allowed.end(), key) != allowed.end()) {
      continue;
    }
    const auto& axes = axis_flags();
    if (grid_axes && std::find(axes.begin(), axes.end(), key) != axes.end()) {
      continue;
    }
    throw UsageError("unknown flag --" + key + " for 'campaign" +
                     (verb.empty() ? "" : " " + verb) + "' (see --help)");
  }
}

void print_help() {
  std::cout <<
      R"(campaign — declarative experiment grids on the async session runtime

Usage:
  campaign [--flags]          execute a grid in this process
  campaign daemon [--flags]   answer spec queries from a warm session
                              plus a persistent result cache; grids it
                              must execute are leased to attached
                              workers, or run locally when none is
  campaign work [--flags]     attach to a daemon and execute its leases
  campaign query [--flags]    ask a daemon for a grid (cached answers
                              return without recomputing anything)

Exit codes: 0 success; 1 runtime failure; 2 usage error (unknown flag or
verb, missing required flag, bad flag value — the message names it).

Grid axes:
  --apps LIST          comma list of app names, or paper|all   [paper]
  --emts LIST          comma list of EMT names, or paper|all   [paper]
  --vmin V --vmax V --step V   inclusive voltage grid          [0.5..0.9/0.05]
  --pathologies LIST   comma list of pathologies, or all       [normal_sinus]
  --noise LIST         comma list of noise scales              [1]
  --record-seed N      generator seed for every record axis    [7]
  --reps N             Monte-Carlo fault maps per cell         [30]
  --seed N             campaign RNG seed                       [2016]
  --ber-model NAME     BER(V) model                            [log-linear]

Execution (campaign::Session):
  --threads N          pool workers; 0 = all hardware threads  [0]
  --shard I/N          execute only this slice of the grid     [0/1]
  --progress           live progress line (items/s, ETA) on stderr
  --max-items N        cancel (item-granular) after ~N executed items
  --checkpoint-every N write the raw store to --store-out after every N
                       items (atomic tmp+rename), resumable with --resume
  --resume PATH        adopt a previous run's raw store and execute only
                       the missing items (grid fingerprint must match)

Observability (util::telemetry; see README "Observability"):
  --trace PATH         record spans on all workers and write Chrome
                       trace-event JSON at exit (open in Perfetto)
  --metrics-out PATH   write the session's MetricsSnapshot JSON at exit
                       (also enables the gated hot-path latency histograms)
  --metrics-every N    log a one-line metrics summary to stderr every N
                       seconds while running
  --merge-metrics LIST merge saved metrics JSONs (counters add, histograms
                       add bucket-wise) into --metrics-out, no execution

Output:
  --store-out PATH     save the raw store (resume/merge input) in the
                       columnar format: bounded-memory load + streaming
                       aggregation
  --group LIST         aggregation axes: record,app,emt,voltage [all four]
  --csv PATH           aggregates as CSV (exact doubles)
  --json PATH          aggregates as JSON
  --merge-stores LIST  merge saved raw stores instead of executing
                       (with --store-out PATH, shards fold by append into
                       the bytes a single-process run saves, then
                       aggregate streaming — memory stays bounded no
                       matter how large the stores are; without it,
                       every input is read into memory and merged)
  --list               enumerate registered components and exit
  --help               this text

Daemon (campaign daemon; see README "Daemon, workers and queries"):
  --listen EP          endpoint to serve on: HOST:PORT (port 0 picks an
                       ephemeral port, printed on stderr) or unix:/path
  --cache-dir DIR      persistent result cache directory (required);
                       a restarted daemon rehydrates its warm set here,
                       and leased shards spool under DIR/spool
  --cache-budget-mb N  LRU byte budget for cached stores        [256]
  --threads N          session pool workers; 0 = all hardware   [0]
  --progress-every-ms N  Progress-frame cadence while executing [250]
  --lease-items N      items per lease grant to a worker        [256]
  --lease-ttl MS       re-lease a lease not renewed within MS   [10000]
  --heartbeat-ms MS    worker poll/renew cadence; must be below
                       --lease-ttl                              [2000]
  --metrics-out PATH   write the daemon's MetricsSnapshot JSON (with the
                       departed workers' snapshots folded in) after the
                       graceful SIGTERM/SIGINT drain

Worker (campaign work) — takes no grid axes; each lease names its grid,
and the daemon re-leases the range of a worker that dies:
  --connect EP         daemon endpoint (required)
  --name NAME          worker label for logs and telemetry      [worker]
  --threads N          session pool workers; 0 = all hardware   [0]

Query client (campaign query) — grid-axis flags pick the grid, the
daemon executes (or answers warm) and aggregates:
  --connect EP         daemon endpoint (required)
  --group/--csv/--json as in a local run (grouping happens daemon-side)
  --store-out PATH     save the returned columnar store verbatim —
                       byte-identical to a local columnar save of the
                       same grid
  --progress           live progress line from streamed Progress frames
                       (an exact cache hit prints none)

Determinism: item RNG streams are keyed on (seed, item index) alone, so
any thread count, shard split, cancellation point, checkpoint/resume
split or distributed lease split reproduces the uninterrupted run
bit-identically.
)";
}

campaign::CampaignSpec spec_from_cli(const util::Cli& cli) {
  campaign::CampaignSpec spec;
  spec.apps = campaign::parse_app_list(cli.get("apps", "paper"));
  spec.emts = campaign::parse_emt_list(cli.get("emts", "paper"));
  spec.voltages = campaign::CampaignSpec::voltage_range(
      cli.get_double("vmin", 0.5), cli.get_double("vmax", 0.9),
      cli.get_double("step", 0.05));
  const auto pathologies = campaign::parse_pathology_list(
      cli.get("pathologies", "normal_sinus"));
  const auto record_seed =
      static_cast<std::uint64_t>(cli.get_int("record-seed", 7));
  for (const std::string& scale : util::split_list(cli.get("noise", "1"))) {
    for (ecg::Pathology p : pathologies) {
      spec.records.push_back(campaign::RecordAxis{
          p, util::parse_double_exact(scale), record_seed});
    }
  }
  spec.repetitions = static_cast<std::size_t>(cli.get_int("reps", 30));
  spec.seed = static_cast<std::uint64_t>(cli.get_int("seed", 2016));
  spec.ber_model = cli.get("ber-model", "log-linear");
  // Eager validation; the registry's unknown-name error lists valid names.
  (void)mem::ber_model_registry().descriptor(spec.ber_model);
  return spec.normalized();
}

/// `--list`: enumerate the component registries from their descriptors —
/// what can go into --apps/--emts/--ber-model, without instantiating
/// anything.
void print_registries() {
  util::Table table("Registered components");
  table.set_header({"kind", "name", "capabilities", "description"});
  const auto caps_of = [](const util::Descriptor& d) {
    std::string caps;
    for (const std::string& c : d.capabilities) {
      if (!caps.empty()) caps += ',';
      caps += c;
    }
    return caps.empty() ? std::string("-") : caps;
  };
  for (const std::string& name : apps::app_names()) {
    const auto d = apps::app_registry().descriptor(name);
    table.add_row({"app", name, caps_of(d), d.doc});
  }
  for (const std::string& name : core::emt_names()) {
    const auto d = core::emt_registry().descriptor(name);
    table.add_row({"emt", name, caps_of(d), d.doc});
  }
  for (const std::string& name : mem::ber_model_names()) {
    const auto d = mem::ber_model_registry().descriptor(name);
    table.add_row({"ber-model", name, caps_of(d), d.doc});
  }
  table.print(std::cout);
}

campaign::Shard shard_from_cli(const util::Cli& cli) {
  const std::string arg = cli.get("shard", "0/1");
  const std::invalid_argument usage(
      "--shard expects I/N with I < N, e.g. --shard 0/4, got '" + arg + "'");
  const auto slash = arg.find('/');
  if (slash == std::string::npos) throw usage;
  campaign::Shard shard;
  try {
    shard.index = util::parse_u64_exact(arg.substr(0, slash));
    shard.count = util::parse_u64_exact(arg.substr(slash + 1));
  } catch (const std::invalid_argument&) {
    throw usage;
  }
  if (shard.index >= shard.count) throw usage;
  return shard;
}

campaign::GroupBy group_from_cli(const util::Cli& cli) {
  const std::string arg = cli.get("group", "record,app,emt,voltage");
  campaign::GroupBy group{false, false, false, false};
  for (const std::string& axis : util::split_list(arg)) {
    if (axis == "record") {
      group.record = true;
    } else if (axis == "app") {
      group.app = true;
    } else if (axis == "emt") {
      group.emt = true;
    } else if (axis == "voltage") {
      group.voltage = true;
    } else {
      throw std::invalid_argument(
          "--group axes: record, app, emt, voltage (got " + axis + ")");
    }
  }
  return group;
}

void print_progress(const campaign::Progress& p) {
  std::ostringstream line;
  line << "[campaign] " << p.items_done << "/" << p.items_total << " items";
  if (p.items_resumed != 0) line << " (" << p.items_resumed << " resumed)";
  if (p.items_per_second > 0.0) {
    line << ", " << util::fmt(p.items_per_second_ewma, 1) << " items/s (avg "
         << util::fmt(p.items_per_second, 1) << ")";
    // The EWMA tracks the *current* rate — after a resume the lifetime
    // average is dragged down by the pre-restart gap and its ETA lies.
    const double eta_s = static_cast<double>(p.items_remaining()) /
                         p.items_per_second_ewma;
    line << ", ETA " << util::fmt(eta_s, 0) << "s";
  }
  if (p.cancelled) line << " [cancelled]";
  // One line, rewritten in place; callers newline-terminate at the end.
  std::cerr << '\r' << line.str() << "          " << std::flush;
}

/// One-line metrics digest for --metrics-every, routed through the
/// (thread-safe) logger so it interleaves cleanly with worker output.
std::string metrics_line(const util::telemetry::MetricsSnapshot& m) {
  const auto counter = [&m](const char* name) -> std::uint64_t {
    const auto it = m.counters.find(name);
    return it == m.counters.end() ? 0 : it->second;
  };
  std::ostringstream os;
  os << "telemetry: items=" << counter("session.items_executed")
     << " claims=" << counter("workpool.claims")
     << " steals=" << counter("workpool.steals") << " busy_s="
     << util::fmt(static_cast<double>(counter("workpool.busy_ns")) / 1e9, 1)
     << " idle_s="
     << util::fmt(static_cast<double>(counter("workpool.idle_ns")) / 1e9, 1);
  if (const auto it = m.histograms.find("session.item_ns");
      it != m.histograms.end() && it->second.count() != 0) {
    os << " item_ms_p50=" << util::fmt(it->second.quantile(0.5) / 1e6, 1)
       << " p95=" << util::fmt(it->second.quantile(0.95) / 1e6, 1);
  }
  if (const auto it = m.counters.find("mem.fault_patch_words");
      it != m.counters.end()) {
    os << " fault_patches=" << it->second;
  }
  return os.str();
}

void write_metrics_json(const util::telemetry::MetricsSnapshot& m,
                        const std::string& path) {
  std::ofstream f(path);
  m.write_json(f);
  if (!f) throw std::runtime_error("failed to write " + path);
  std::cerr << "[campaign] wrote metrics " << path << '\n';
}

void write_trace_json(const std::string& path) {
  util::telemetry::trace::stop();
  std::ofstream f(path);
  util::telemetry::trace::write_chrome_json(f);
  if (!f) throw std::runtime_error("failed to write " + path);
  std::cerr << "[campaign] wrote trace " << path << " ("
            << util::telemetry::trace::event_count() << " events)\n";
}

void export_rows(const util::Cli& cli,
                 const std::vector<campaign::AggregateRow>& rows) {
  campaign::rows_to_table(
      rows, "Campaign aggregates (" + std::to_string(rows.size()) + " groups)")
      .print(std::cout);

  if (const std::string path = cli.get("csv", ""); !path.empty()) {
    std::ofstream f(path);
    campaign::write_rows_csv(f, rows);
    if (!f) throw std::runtime_error("failed to write " + path);
    std::cerr << "[campaign] wrote " << path << '\n';
  }
  if (const std::string path = cli.get("json", ""); !path.empty()) {
    std::ofstream f(path);
    campaign::write_rows_json(f, rows);
    if (!f) throw std::runtime_error("failed to write " + path);
    std::cerr << "[campaign] wrote " << path << '\n';
  }
}

void export_aggregates(const util::Cli& cli,
                       const campaign::ResultStore& store) {
  export_rows(cli, store.aggregate(group_from_cli(cli)));
}

/// --merge-stores: reassemble shard/checkpoint stores instead of
/// executing. Two regimes behind one flag:
///  - out-of-core (a --store-out target): shards fold by append into the
///    bytes a single-process run would save, and the merged store
///    aggregates streaming through a bounded read cache. Memory never
///    scales with the sample data, so this handles stores larger than
///    RAM.
///  - in-memory (no --store-out): each input is materialized and folded
///    with ResultStore::merge.
/// Both produce bit-identical aggregate rows (shared fold).
void run_merge_stores(const util::Cli& cli, const campaign::CampaignSpec& spec,
                      const std::vector<std::string>& paths) {
  if (const std::string store_out = cli.get("store-out", "");
      !store_out.empty()) {
    campaign::ColumnarStore::append_merge(paths, store_out, spec);
    const campaign::ColumnarStore merged =
        campaign::ColumnarStore::open(store_out, spec);
    std::cerr << "[campaign] appended " << paths.size() << " shards into "
              << store_out << " (" << merged.items_done() << " items)\n";
    export_rows(cli, merged.aggregate(group_from_cli(cli)));
    return;
  }

  campaign::ResultStore merged(spec);
  for (const std::string& path : paths) {
    merged.merge(campaign::ColumnarStore::open(path, spec).materialize());
  }
  export_aggregates(cli, merged);
}

/// `campaign work`: attach to a daemon and execute its leases.
int run_work(const util::Cli& cli) {
  enforce_flags(cli, {"connect", "name", "threads", "help"}, "work", false);
  serve::Worker::Options options;
  options.connect = cli.get("connect", "");
  if (options.connect.empty()) {
    throw UsageError(
        "campaign work requires --connect HOST:PORT or --connect unix:/path");
  }
  options.name = cli.get("name", "worker");
  options.threads = static_cast<unsigned>(count_flag(cli, "threads", 0));

  serve::Worker worker(options);
  std::cerr << "[campaign] worker " << options.name << " connecting to "
            << options.connect << '\n';
  const serve::Worker::Report report = worker.run();
  std::cerr << "[campaign] worker " << options.name << " done: "
            << report.leases_completed << " leases, "
            << report.items_executed << " items\n";
  return 0;
}

/// The daemon being served by this process, for the signal handlers.
/// request_stop() is async-signal-safe (one self-pipe write).
std::atomic<serve::Daemon*> g_daemon{nullptr};

void handle_stop_signal(int) {
  if (serve::Daemon* daemon = g_daemon.load()) daemon->request_stop();
}

/// `campaign daemon`: answer spec queries from a warm session + cache,
/// leasing executed grids to attached workers.
int run_daemon(const util::Cli& cli) {
  enforce_flags(cli,
                {"listen", "cache-dir", "cache-budget-mb", "threads",
                 "progress-every-ms", "lease-items", "lease-ttl",
                 "heartbeat-ms", "metrics-out", "help"},
                "daemon", false);
  serve::Daemon::Options options;
  options.listen = cli.get("listen", "");
  if (options.listen.empty()) {
    throw UsageError(
        "campaign daemon requires --listen HOST:PORT or --listen unix:/path");
  }
  options.cache_dir = cli.get("cache-dir", "");
  if (options.cache_dir.empty()) {
    throw UsageError(
        "campaign daemon requires --cache-dir DIR (the persistent result "
        "cache)");
  }
  options.cache_budget_bytes =
      static_cast<std::uint64_t>(count_flag(cli, "cache-budget-mb", 256, 1))
      << 20;
  options.threads = static_cast<unsigned>(count_flag(cli, "threads", 0));
  options.progress_every_ms = count_flag(cli, "progress-every-ms", 250, 1);
  options.lease_items = count_flag(cli, "lease-items", 256, 1);
  options.lease_ttl_ms = count_flag(cli, "lease-ttl", 10'000, 1);
  options.heartbeat_ms = count_flag(cli, "heartbeat-ms", 2'000, 1);
  const std::string metrics_out = cli.get("metrics-out", "");
  if (!metrics_out.empty()) util::telemetry::set_hot_timing(true);

  std::optional<serve::Daemon> served;
  try {
    served.emplace(options);
  } catch (const std::invalid_argument& e) {
    throw UsageError(std::string("--heartbeat-ms must be below --lease-ttl: ") +
                     e.what());
  }
  serve::Daemon& daemon = *served;
  g_daemon.store(&daemon);
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);
  std::cerr << "[campaign] daemon on " << daemon.endpoint()
            << " (cache " << daemon.cache().dir() << ": "
            << daemon.cache().entries() << " warm entries, "
            << daemon.cache().bytes() << " bytes)\n";

  const serve::Daemon::Report report = daemon.run();
  g_daemon.store(nullptr);
  std::cerr << "[campaign] daemon drained: " << report.clients
            << " clients, " << report.workers << " workers, "
            << report.queries << " queries ("
            << report.cache_hits << " hits, " << report.gap_fills
            << " gap-fills, " << report.cold_runs << " cold, "
            << report.errors << " errors), " << report.items_executed
            << " items executed, " << report.items_reused << " reused\n";
  if (!metrics_out.empty()) write_metrics_json(daemon.telemetry(), metrics_out);
  return 0;
}

/// `campaign query`: ask a daemon for a grid. The same axis flags as a
/// local run describe what to compute; the table/--csv/--json exports
/// come from the daemon's aggregation (exact double round-trip), and
/// --store-out saves the returned columnar bytes verbatim.
int run_query(const util::Cli& cli) {
  enforce_flags(cli,
                {"connect", "group", "csv", "json", "store-out", "progress",
                 "help"},
                "query", true);
  const campaign::CampaignSpec spec =
      parse_flags([&cli] { return spec_from_cli(cli); });
  const campaign::GroupBy group =
      parse_flags([&cli] { return group_from_cli(cli); });
  const std::string connect = cli.get("connect", "");
  if (connect.empty()) {
    throw UsageError(
        "campaign query requires --connect HOST:PORT or --connect unix:/path");
  }
  const std::string store_out = cli.get("store-out", "");

  serve::Client client = serve::Client::connect(connect);
  serve::Client::QueryOptions options;
  options.want_store = !store_out.empty();
  options.want_rows = true;
  options.group = group;
  const bool show_progress = cli.has("progress");
  bool printed_progress = false;
  if (show_progress) {
    options.on_progress = [&printed_progress](const serve::Progress& p) {
      std::cerr << '\r' << "[campaign] " << p.items_done << "/"
                << p.items_total << " items          " << std::flush;
      printed_progress = true;
    };
  }

  const serve::Result result = client.query(spec, options);
  if (printed_progress) std::cerr << '\n';
  std::cerr << "[campaign] " << serve::to_string(result.status)
            << " answer from " << connect << ": " << result.items_executed
            << " of " << result.items_total << " items executed\n";
  if (!store_out.empty()) {
    std::ofstream f(store_out, std::ios::binary);
    f.write(reinterpret_cast<const char*>(result.store_bytes.data()),
            static_cast<std::streamsize>(result.store_bytes.size()));
    if (!f) throw std::runtime_error("failed to write " + store_out);
    std::cerr << "[campaign] wrote raw store " << store_out << " (columnar, "
              << result.store_bytes.size() << " bytes)\n";
  }
  std::istringstream rows_in(result.rows_csv);
  export_rows(cli, campaign::read_rows_csv(rows_in));
  return 0;
}

/// The classic single-process mode (no verb).
int run_local(const util::Cli& cli) {
  {
    enforce_flags(cli,
                  {"threads", "shard", "progress", "max-items",
                   "checkpoint-every", "resume", "trace", "metrics-out",
                   "metrics-every", "merge-metrics", "store-out", "group",
                   "csv", "json", "merge-stores", "list", "help"},
                  "", true);
    if (cli.has("list")) {
      print_registries();
      return 0;
    }
    // Metrics-merge mode: fold saved snapshots (the distributed-mode
    // shape: one metrics JSON per worker process) without executing.
    if (const std::string list = cli.get("merge-metrics", "");
        !list.empty()) {
      util::telemetry::MetricsSnapshot merged;
      for (const std::string& path : util::split_list(list)) {
        std::ifstream f(path);
        if (!f) throw std::runtime_error("cannot open " + path);
        merged.merge(util::telemetry::MetricsSnapshot::read_json(f));
      }
      const std::string out = cli.get("metrics-out", "");
      if (out.empty()) {
        merged.write_json(std::cout);
      } else {
        write_metrics_json(merged, out);
      }
      return 0;
    }

    const campaign::CampaignSpec spec =
        parse_flags([&cli] { return spec_from_cli(cli); });
    // Validate the export flag values up front — a bad --group or an
    // empty --merge-stores list must exit 2 before any compute happens.
    const std::vector<std::string> merge_paths = parse_flags([&cli] {
      (void)group_from_cli(cli);
      std::vector<std::string> paths =
          util::split_list(cli.get("merge-stores", ""));
      if (cli.has("merge-stores") && paths.empty()) {
        throw std::invalid_argument("--merge-stores names no store path");
      }
      return paths;
    });

    // Merge mode: reassemble shard/checkpoint stores instead of executing.
    if (!merge_paths.empty()) {
      run_merge_stores(cli, spec, merge_paths);
      return 0;
    }

    campaign::SubmitOptions options;
    options.shard = parse_flags([&cli] { return shard_from_cli(cli); });
    const auto threads = static_cast<unsigned>(count_flag(cli, "threads", 0));
    const std::size_t checkpoint_every = count_flag(cli, "checkpoint-every", 0);
    const std::size_t metrics_every_s = count_flag(cli, "metrics-every", 0);
    const std::size_t max_items = count_flag(cli, "max-items", 0);

    // Resume: adopt a previous run's raw store (fingerprint-checked
    // against this invocation's axes) and execute only the gaps.
    campaign::ResultStore resume_store;
    if (const std::string path = cli.get("resume", ""); !path.empty()) {
      resume_store = campaign::ColumnarStore::open(path, spec).materialize();
      options.resume_from = &resume_store;
      std::cerr << "[campaign] resuming from " << path << " ("
                << resume_store.items_done() << " items already done)\n";
    }

    const std::string store_out = cli.get("store-out", "");
    if (checkpoint_every != 0) {
      if (store_out.empty()) {
        throw UsageError(
            "--checkpoint-every requires --store-out PATH (the checkpoint "
            "target)");
      }
      options.checkpoint_every = checkpoint_every;
      options.on_checkpoint = [&store_out](const campaign::ResultStore& s) {
        s.save_columnar(store_out);
      };
    }

    // Telemetry activation, armed before the Session so its baseline and
    // the trace epoch precede the first worker span.
    const std::string trace_out = cli.get("trace", "");
    const std::string metrics_out = cli.get("metrics-out", "");
    if (!trace_out.empty()) util::telemetry::trace::start();
    if (!metrics_out.empty() || metrics_every_s != 0) {
      util::telemetry::set_hot_timing(true);
    }

    campaign::Session session(energy::SystemEnergyModel(), threads);
    std::cerr << "[campaign] " << spec.records.size() << " records x "
              << spec.apps.size() << " apps x " << spec.emts.size()
              << " emts x " << spec.voltages.size() << " voltages x "
              << spec.repetitions << " reps = " << spec.item_count()
              << " items (" << spec.cell_count() << " cells), shard "
              << options.shard.index << "/" << options.shard.count
              << " on up to " << session.threads() << " threads\n";

    const campaign::CampaignHandle handle = session.submit(spec, options);

    // Drive the handle: stream progress, honour --max-items via the
    // cooperative cancel, and pick up the store when the job lands.
    const bool show_progress = cli.has("progress");
    campaign::ResultStore store;
    if (!show_progress && max_items == 0 && metrics_every_s == 0) {
      store = handle.take();
    } else {
      auto next_metrics = std::chrono::steady_clock::now() +
                          std::chrono::seconds(metrics_every_s);
      for (;;) {
        const campaign::Progress p = handle.progress();
        if (show_progress) print_progress(p);
        if (metrics_every_s != 0 &&
            std::chrono::steady_clock::now() >= next_metrics) {
          if (show_progress) std::cerr << '\n';  // leave the \r line intact
          util::log_info(metrics_line(session.telemetry()));
          next_metrics += std::chrono::seconds(metrics_every_s);
        }
        if (max_items != 0 && !p.cancelled &&
            p.items_done - p.items_resumed >= max_items) {
          handle.cancel();
        }
        if (p.finished) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      if (show_progress) {
        print_progress(handle.progress());
        std::cerr << '\n';
      }
      store = handle.take();
    }

    if (!store_out.empty()) {
      store.save_columnar(store_out);
      std::cerr << "[campaign] wrote raw store " << store_out << " ("
                << store.items_done() << " items)\n";
    }
    if (!metrics_out.empty()) {
      write_metrics_json(session.telemetry(), metrics_out);
    }
    if (!trace_out.empty()) write_trace_json(trace_out);
    if (store.complete()) {
      export_aggregates(cli, store);
    } else if (handle.progress().cancelled) {
      std::cerr << "[campaign] stopped after " << store.items_done()
                << " items; complete the grid later with --resume "
                << (store_out.empty() ? std::string("<store>") : store_out)
                << '\n';
    } else {
      std::cerr << "[campaign] shard store incomplete by design; merge all "
                   "shards with --merge-stores to aggregate\n";
    }
    return 0;
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Cli cli(argc, argv);
    if (cli.has("help")) {
      print_help();
      return 0;
    }
    const auto& verbs = cli.positional();
    if (verbs.empty()) return run_local(cli);
    if (verbs.size() > 1) {
      throw UsageError("expected one verb, got '" + verbs[0] + "' and '" +
                       verbs[1] + "'");
    }
    if (verbs[0] == "daemon") return run_daemon(cli);
    if (verbs[0] == "work") return run_work(cli);
    if (verbs[0] == "query") return run_query(cli);
    throw UsageError("unknown verb '" + verbs[0] +
                     "' (verbs: daemon, work, query; see --help)");
  } catch (const UsageError& e) {
    std::cerr << "campaign: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "campaign: " << e.what() << '\n';
    return 1;
  }
}
