#include "ulpdream/campaign/session.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "ulpdream/core/ecc_secded.hpp"
#include "ulpdream/mem/fault_map.hpp"
#include "ulpdream/mem/memory.hpp"
#include "ulpdream/sim/runner.hpp"
#include "ulpdream/util/rng.hpp"
#include "ulpdream/util/telemetry.hpp"

namespace ulpdream::campaign {

namespace detail {

using Clock = std::chrono::steady_clock;

/// Shared state of one submitted campaign: the read-only execution
/// context materialized at submit time, plus the store and progress
/// counters guarded by `mutex`. Owned jointly by the handle and (until
/// the job finishes) the pool's worker closures.
struct CampaignJob {
  // Immutable after submit().
  CampaignSpec spec;            ///< normalized
  std::vector<WorkItem> todo;   ///< items this submission executes
  std::size_t shard_total = 0;  ///< items in the shard slice
  std::size_t resumed = 0;      ///< shard items adopted from resume_from
  std::vector<ecg::Record> records;
  std::vector<std::unique_ptr<apps::BioApp>> app_objs;
  std::vector<std::unique_ptr<core::Emt>> emt_objs;
  std::unique_ptr<mem::BerModel> ber_model;
  int map_bits = 0;
  std::size_t checkpoint_every = 0;
  std::function<void(const CampaignHandle&, const WorkItem&,
                     std::span<const Sample>)>
      on_item;
  std::function<void(const ResultStore&)> on_checkpoint;
  Clock::time_point start{};
  /// Per-EMT run_once latency histograms ("session.run_ns.<emt>"), and
  /// matching interned trace-span names — resolved once at submit,
  /// parallel to emt_objs.
  std::vector<util::telemetry::Histogram> emt_run_ns;
  std::vector<const char*> emt_span_names;

  // Guarded by `mutex`: the store and everything the observer /
  // checkpoint callbacks see. One short lock per completed item — the
  // simulation itself runs outside it.
  std::mutex mutex;
  ResultStore store;
  std::size_t executed = 0;
  Clock::time_point last_item{};
  // Recent-rate EWMA over >= 0.5 s windows (tau = 5 s), folded under the
  // item lock; ewma_items/ewma_start describe the still-open window.
  double ewma_rate = 0.0;
  std::size_t ewma_items = 0;
  Clock::time_point ewma_start{};

  std::shared_ptr<util::WorkPool::Job> pool_job;
};

/// EWMA parameters: fold a window no shorter than this, decay with this
/// time constant. A 5 s tau tracks a post-resume rate change within
/// ~10 s while riding out per-item jitter.
constexpr double kEwmaMinWindowS = 0.5;
constexpr double kEwmaTauS = 5.0;

/// Folds an `items`-over-`dt` window into `ewma` (first window seeds it).
inline double ewma_fold(double ewma, std::size_t items, double dt) {
  const double inst = static_cast<double>(items) / dt;
  if (ewma == 0.0) return inst;
  const double alpha = 1.0 - std::exp(-dt / kEwmaTauS);
  return ewma + alpha * (inst - ewma);
}

namespace {

/// Executes one work item: one fault map drawn from the item's private
/// RNG stream at BER(V), reused across every (app, EMT) pair — the
/// paper's Sec. V fairness protocol, per grid item.
void run_item(sim::ExperimentRunner& runner, const CampaignJob& job,
              const WorkItem& item, std::vector<Sample>& samples) {
  const double v = job.spec.voltages[item.voltage_index];
  const ecg::Record& record = job.records[item.record_index];

  util::Xoshiro256 rng(item.seed);
  const mem::FaultMap map = mem::FaultMap::random(
      mem::MemoryGeometry::kWords16, job.map_bits, job.ber_model->ber(v),
      rng);

  samples.clear();
  for (const auto& app : job.app_objs) {
    for (std::size_t ei = 0; ei < job.emt_objs.size(); ++ei) {
      const auto& emt = job.emt_objs[ei];
      const std::uint64_t t0 = util::telemetry::now_ns();
      const util::telemetry::TraceSpan span(job.emt_span_names[ei]);
      const sim::RunResult r = runner.run_once(*app, record, *emt, &map, v);
      job.emt_run_ns[ei].record(util::telemetry::now_ns() - t0);
      Sample s;
      s.snr_db = r.snr_db;
      s.energy = r.energy;
      s.corrected_words = static_cast<double>(r.counters.corrected_words);
      s.detected_uncorrectable =
          static_cast<double>(r.counters.detected_uncorrectable);
      samples.push_back(s);
    }
  }
}

}  // namespace

}  // namespace detail

namespace {

/// Records one executed item under the job lock: store write, streaming
/// observer (handed the job's own handle, so cancel-after-N needs no
/// caller-side handle plumbing), and the periodic checkpoint snapshot —
/// serialized, so the callbacks always see a consistent store.
void record_item(const std::shared_ptr<detail::CampaignJob>& job,
                 const WorkItem& item, const std::vector<Sample>& samples,
                 std::uint64_t item_start_ns) {
  namespace tel = ulpdream::util::telemetry;
  static const tel::Counter items_executed("session.items_executed");
  static const tel::Counter checkpoints("session.checkpoints");
  static const tel::Histogram checkpoint_ns("session.checkpoint_ns");
  static const tel::Histogram item_ns("session.item_ns");
  item_ns.record(tel::now_ns() - item_start_ns);

  const std::lock_guard lock(job->mutex);
  job->store.record_item(item, samples);
  ++job->executed;
  items_executed.add();
  job->last_item = detail::Clock::now();
  ++job->ewma_items;
  const double window_s = std::chrono::duration<double>(
                              job->last_item - job->ewma_start)
                              .count();
  if (window_s >= detail::kEwmaMinWindowS) {
    job->ewma_rate = detail::ewma_fold(job->ewma_rate, job->ewma_items,
                                       window_s);
    job->ewma_items = 0;
    job->ewma_start = job->last_item;
  }
  if (job->on_item) {
    job->on_item(CampaignHandle(job), item, std::span<const Sample>(samples));
  }
  if (job->checkpoint_every != 0 && job->on_checkpoint &&
      job->executed % job->checkpoint_every == 0) {
    ULPDREAM_TRACE_SPAN("session.checkpoint");
    const std::uint64_t t0 = tel::now_ns();
    job->on_checkpoint(job->store);
    checkpoint_ns.record(tel::now_ns() - t0);
    checkpoints.add();
  }
}

}  // namespace

CampaignHandle::CampaignHandle(std::shared_ptr<detail::CampaignJob> job)
    : job_(std::move(job)) {}

namespace {

detail::CampaignJob& checked(
    const std::shared_ptr<detail::CampaignJob>& job) {
  if (!job) throw std::logic_error("CampaignHandle: empty handle");
  return *job;
}

}  // namespace

ResultStore CampaignHandle::take() const {
  detail::CampaignJob& job = checked(job_);
  job.pool_job->wait();
  const std::lock_guard lock(job.mutex);
  ResultStore out = std::move(job.store);
  job.store = ResultStore();
  return out;
}

Progress CampaignHandle::progress() const {
  detail::CampaignJob& job = checked(job_);
  Progress p;
  p.items_total = job.shard_total;
  p.items_resumed = job.resumed;
  p.cancelled = job.pool_job->cancelled();
  p.finished = job.pool_job->finished();
  const auto now = detail::Clock::now();
  const std::lock_guard lock(job.mutex);
  p.items_done = job.resumed + job.executed;
  const double run_s =
      std::chrono::duration<double>(job.last_item - job.start).count();
  p.items_per_second =
      (job.executed > 0 && run_s > 0.0)
          ? static_cast<double>(job.executed) / run_s
          : 0.0;
  // Recent rate: the folded EWMA plus the still-open window, computed
  // without mutating the fold state (progress() is a pure observer).
  double ewma = job.ewma_rate;
  const double open_s =
      std::chrono::duration<double>(now - job.ewma_start).count();
  if (open_s >= detail::kEwmaMinWindowS) {
    // Also when the open window is empty: a stalled run decays toward 0
    // instead of freezing at its last healthy rate.
    ewma = detail::ewma_fold(ewma, job.ewma_items, open_s);
  }
  p.items_per_second_ewma = ewma != 0.0 ? ewma : p.items_per_second;
  return p;
}

void CampaignHandle::cancel() const { checked(job_).pool_job->cancel(); }

Session::Session(energy::SystemEnergyModel energy_model, unsigned threads)
    : energy_model_(energy_model),
      baseline_(util::telemetry::snapshot()),
      pool_(threads) {}

Session Session::from_cli(const util::Cli& cli,
                          energy::SystemEnergyModel energy_model) {
  const std::int64_t threads =
      std::max<std::int64_t>(0, cli.get_int("threads", 0));
  return Session(energy_model, static_cast<unsigned>(threads));
  // (Session is move-constructible through guaranteed copy elision only;
  // callers receive the prvalue directly.)
}

CampaignHandle Session::submit(const CampaignSpec& base_spec,
                               SubmitOptions options) {
  namespace tel = util::telemetry;
  ULPDREAM_TRACE_SPAN("session.submit");
  static const tel::Counter submits("session.submits");
  static const tel::Counter items_resumed("session.items_resumed");
  submits.add();
  auto job = std::make_shared<detail::CampaignJob>();
  job->spec = base_spec.normalized();
  job->checkpoint_every = options.checkpoint_every;
  job->on_item = std::move(options.on_item);
  job->on_checkpoint = std::move(options.on_checkpoint);

  std::vector<WorkItem> shard_items;
  if (options.item_range.has_value()) {
    if (options.shard.index != 0 || options.shard.count != 1) {
      throw std::invalid_argument(
          "Session::submit: item_range and a non-default shard are "
          "mutually exclusive");
    }
    shard_items = expand_range(job->spec, options.item_range->begin,
                               options.item_range->end);
  } else {
    shard_items =
        expand_shard(job->spec, options.shard.index, options.shard.count);
  }
  job->shard_total = shard_items.size();

  // Sparse shard store over exactly this slice; a resume store's recorded
  // items are adopted verbatim (merge validates the grid fingerprint) and
  // only the gaps are executed.
  job->store = ResultStore(job->spec, shard_items);
  if (options.resume_from != nullptr) {
    const std::string want = job->spec.fingerprint();
    const std::string got = options.resume_from->spec().fingerprint();
    if (want != got) {
      throw std::invalid_argument(
          "Session::submit: resume store was built for a different campaign "
          "grid (axes + seed must match)\n  campaign: " +
          want + "\n  resume:   " + got);
    }
    job->store.merge(*options.resume_from);
  }
  job->todo.reserve(shard_items.size());
  for (const WorkItem& item : shard_items) {
    if (!job->store.item_done(item.index)) job->todo.push_back(item);
  }
  job->resumed = shard_items.size() - job->todo.size();
  if (job->resumed != 0) items_resumed.add(job->resumed);

  // Deterministic shared inputs, materialized once on the submitting
  // thread: the record corpus (renamed to the unique axis label — the
  // generator's <pathology>_s<seed> name collides for axes differing
  // only in noise level, and record names key the runner's reference
  // cache) and the component objects, resolved by registry name so user
  // registrations run exactly like built-ins. Every worker runs the same
  // objects concurrently: any state an app keeps across runs (CsApp's
  // reconstruction memo) is synchronized and never changes a result.
  job->records.reserve(job->spec.records.size());
  for (const RecordAxis& axis : job->spec.records) {
    ecg::GeneratorConfig gen;
    gen.fs_hz = job->spec.fs_hz;
    gen.duration_s = job->spec.duration_s;
    gen.pathology = axis.pathology;
    gen.seed = axis.seed;
    gen.noise.baseline_wander_mv *= axis.noise_scale;
    gen.noise.powerline_mv *= axis.noise_scale;
    gen.noise.emg_std_mv *= axis.noise_scale;
    job->records.push_back(ecg::generate_record(gen));
    job->records.back().name = axis.label();
  }
  job->app_objs.reserve(job->spec.apps.size());
  for (const std::string& name : job->spec.apps) {
    job->app_objs.push_back(apps::make_app(name));
  }
  job->emt_objs.reserve(job->spec.emts.size());
  job->emt_run_ns.reserve(job->spec.emts.size());
  job->emt_span_names.reserve(job->spec.emts.size());
  for (const std::string& name : job->spec.emts) {
    job->emt_objs.push_back(core::make_emt(name));
    job->emt_run_ns.emplace_back("session.run_ns." + name);
    job->emt_span_names.push_back(tel::intern("run." + name));
  }
  job->ber_model = mem::make_ber_model(job->spec.ber_model);

  // Maps are generated at the campaign's widest payload so the same cell
  // fault locations apply to every EMT (narrower payloads simply never
  // touch the high columns) — at least ECC's 22 bits, so the built-in
  // grids keep their historical maps.
  job->map_bits = core::EccSecDed::kPayloadBits;
  for (const auto& emt : job->emt_objs) {
    job->map_bits = std::max(job->map_bits, emt->payload_bits());
  }

  // Clean-run SNR ceilings (Fig. 4 dashed lines): serial, cheap and
  // deterministic, so any shard's / any resumed run's store carries the
  // same values. The runner keeps every reference and the fault-free
  // "none" runs the ceilings executed; each pool worker starts from a
  // copy of it.
  sim::ExperimentRunner warmed(energy_model_);
  for (std::size_t ri = 0; ri < job->records.size(); ++ri) {
    for (std::size_t ai = 0; ai < job->app_objs.size(); ++ai) {
      job->store.set_max_snr(
          ri, ai, warmed.max_snr_db(*job->app_objs[ai], job->records[ri]));
    }
  }

  job->start = detail::Clock::now();
  job->last_item = job->start;
  job->ewma_start = job->start;

  // The factory closure owns a reference to the job; the pool releases
  // it (and every per-worker closure) the moment the job finishes, which
  // breaks the handle -> pool-job -> closure -> job cycle. The job is
  // submitted deferred and started only after pool_job is published, so
  // no worker (and no on_item handle) can observe it half-constructed.
  // Workers copy the warmed runner concurrently; nothing mutates it.
  job->pool_job = pool_.submit_deferred(
      job->todo.size(), [job, warmed = std::move(warmed)]() {
        return [job, runner = warmed,
                samples = std::vector<Sample>()](std::size_t i) mutable {
          const std::uint64_t t0 = util::telemetry::now_ns();
          const WorkItem& item = job->todo[i];
          detail::run_item(runner, *job, item, samples);
          record_item(job, item, samples, t0);
        };
      });
  job->pool_job->start();
  return CampaignHandle(job);
}

}  // namespace ulpdream::campaign
