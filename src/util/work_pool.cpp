#include "ulpdream/util/work_pool.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <utility>

#include "ulpdream/util/telemetry.hpp"

namespace ulpdream::util {

namespace {

/// Per-worker counter name; workers past 31 share one bucket so a huge
/// pool cannot exhaust the registry's counter id space.
std::string worker_metric(unsigned worker_id, const char* what) {
  return "workpool.w" +
         (worker_id < 32 ? std::to_string(worker_id) : std::string("rest")) +
         "." + what;
}

}  // namespace

// Shared between the pool and every job it ever issued, so job handles
// stay safe to poll (and to wait on) after the pool is destroyed.
struct WorkPool::State {
  std::mutex mutex;
  std::condition_variable work_cv;  ///< workers: claimable work or stop
  std::condition_variable done_cv;  ///< waiters: some job finished
  std::deque<std::shared_ptr<Job>> jobs;  ///< unfinished jobs, FIFO
  unsigned threads = 1;
  unsigned parked = 0;  ///< workers blocked in work_cv.wait (no busy poll)
  bool stop = false;

  /// True when `job` can hand out another index.
  [[nodiscard]] static bool claimable(const Job& job) noexcept {
    return job.started_ && !job.cancelled_ && !job.error_ &&
           job.next_ < job.count_;
  }

  /// Marks `job` finished once nothing can be claimed and nothing is in
  /// flight; drops it from the queue and releases its closures (they may
  /// own the caller's context — keeping them would leak it through
  /// handle/factory reference cycles). A deferred job that was never
  /// started only finishes through cancellation. Caller holds `mutex`.
  void finish_if_drained(const std::shared_ptr<Job>& job) {
    if (job->finished_ || claimable(*job) || job->in_flight_ != 0 ||
        (!job->started_ && !job->cancelled_)) {
      return;
    }
    job->finished_ = true;
    job->factory_ = nullptr;
    for (Job::Slot& slot : job->slots_) slot.fn = nullptr;
    jobs.erase(std::remove(jobs.begin(), jobs.end(), job), jobs.end());
    queue_depth().set(static_cast<double>(jobs.size()));
    done_cv.notify_all();
  }

  /// Unfinished jobs currently queued on the pool.
  static const telemetry::Gauge& queue_depth() {
    static const telemetry::Gauge gauge("workpool.jobs_queued");
    return gauge;
  }

  /// Workers currently parked on the condition variable — the proof the
  /// idle path blocks in the kernel instead of spinning (a full pool at
  /// rest reads threads here and burns no measurable CPU; see
  /// WorkPool.IdleWorkersParkWithoutBurningCpu).
  static const telemetry::Gauge& parked_workers() {
    static const telemetry::Gauge gauge("workpool.parked_workers");
    return gauge;
  }
};

WorkPool::Job::Job(std::shared_ptr<State> state, std::size_t count,
                   WorkerFactory factory)
    : state_(std::move(state)),
      count_(count),
      factory_(std::move(factory)),
      slots_(state_->threads) {}

void WorkPool::Job::wait() {
  std::unique_lock lock(state_->mutex);
  state_->done_cv.wait(lock, [&] { return finished_; });
  if (error_) std::rethrow_exception(error_);
}

void WorkPool::Job::cancel() {
  const std::lock_guard lock(state_->mutex);
  if (finished_) return;
  cancelled_ = true;
  // Self may be mid-flight; finish now if nothing is running.
  for (const std::shared_ptr<Job>& job : state_->jobs) {
    if (job.get() == this) {
      state_->finish_if_drained(job);
      break;
    }
  }
}

void WorkPool::Job::start() {
  const std::lock_guard lock(state_->mutex);
  if (started_) return;
  started_ = true;
  for (const std::shared_ptr<Job>& job : state_->jobs) {
    if (job.get() == this) {
      state_->finish_if_drained(job);  // count == 0 finishes immediately
      break;
    }
  }
  state_->work_cv.notify_all();
}

bool WorkPool::Job::finished() const {
  const std::lock_guard lock(state_->mutex);
  return finished_;
}

bool WorkPool::Job::cancelled() const {
  const std::lock_guard lock(state_->mutex);
  return cancelled_;
}

std::size_t WorkPool::Job::done() const {
  const std::lock_guard lock(state_->mutex);
  return done_;
}

std::vector<std::size_t> WorkPool::Job::done_per_worker() const {
  const std::lock_guard lock(state_->mutex);
  std::vector<std::size_t> out;
  out.reserve(slots_.size());
  for (const Slot& slot : slots_) out.push_back(slot.done);
  return out;
}

WorkPool::WorkPool(unsigned threads) : state_(std::make_shared<State>()) {
  state_->threads =
      threads != 0 ? threads
                   : std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(state_->threads);
  for (unsigned w = 0; w < state_->threads; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

WorkPool::~WorkPool() {
  {
    const std::lock_guard lock(state_->mutex);
    state_->stop = true;
    // Cancel whatever is still queued; in-flight indices drain before
    // the workers exit, so every job handle ends up finished.
    const auto jobs = state_->jobs;  // finish_if_drained erases from jobs
    for (const std::shared_ptr<Job>& job : jobs) {
      job->cancelled_ = true;
      state_->finish_if_drained(job);
    }
    state_->work_cv.notify_all();
  }
  for (std::thread& t : workers_) t.join();
}

std::shared_ptr<WorkPool::Job> WorkPool::submit(std::size_t count,
                                                WorkerFactory factory) {
  std::shared_ptr<Job> job = submit_deferred(count, std::move(factory));
  job->start();
  return job;
}

std::shared_ptr<WorkPool::Job> WorkPool::submit_deferred(
    std::size_t count, WorkerFactory factory) {
  // make_shared needs a public ctor; the private one keeps Job creation
  // inside the pool, so allocate via new.
  std::shared_ptr<Job> job(new Job(state_, count, std::move(factory)));
  const std::lock_guard lock(state_->mutex);
  state_->jobs.push_back(job);
  State::queue_depth().set(static_cast<double>(state_->jobs.size()));
  return job;
}

unsigned WorkPool::threads() const noexcept { return state_->threads; }

void WorkPool::worker_main(unsigned worker_id) {
  // Counter/histogram handles resolve their names once per process; the
  // per-item cost below is a few relaxed fetch_adds and two clock reads —
  // noise against ms-scale simulation items.
  static const telemetry::Counter claims("workpool.claims");
  static const telemetry::Counter steals("workpool.steals");
  static const telemetry::Counter busy_total("workpool.busy_ns");
  static const telemetry::Counter idle_total("workpool.idle_ns");
  static const telemetry::Histogram claim_wait("workpool.claim_wait_ns");
  const telemetry::Counter busy(worker_metric(worker_id, "busy_ns"));
  const telemetry::Counter idle(worker_metric(worker_id, "idle_ns"));

  std::unique_lock lock(state_->mutex);
  std::uint64_t seek_start = telemetry::now_ns();
  for (;;) {
    // Claim from the oldest claimable job — FIFO across jobs, one index
    // at a time, so concurrent jobs interleave and cancel is prompt.
    std::shared_ptr<Job> job;
    for (const std::shared_ptr<Job>& candidate : state_->jobs) {
      if (State::claimable(*candidate)) {
        job = candidate;
        break;
      }
    }
    if (!job) {
      if (state_->stop) return;
      ++state_->parked;
      State::parked_workers().set(static_cast<double>(state_->parked));
      state_->work_cv.wait(lock);
      --state_->parked;
      State::parked_workers().set(static_cast<double>(state_->parked));
      continue;
    }
    const std::size_t index = job->next_++;
    ++job->in_flight_;
    claims.add();
    if (job->last_worker_ != ~0u && job->last_worker_ != worker_id) {
      steals.add();
    }
    job->last_worker_ = worker_id;
    lock.unlock();

    const std::uint64_t item_start = telemetry::now_ns();
    const std::uint64_t waited = item_start - seek_start;
    claim_wait.record(waited);
    idle.add(waited);
    idle_total.add(waited);

    Job::Slot& slot = job->slots_[worker_id];
    std::exception_ptr error;
    {
      ULPDREAM_TRACE_SPAN("pool.item");
      try {
        if (!slot.fn) slot.fn = job->factory_();
        slot.fn(index);
      } catch (...) {
        error = std::current_exception();
      }
    }
    const std::uint64_t ran = telemetry::now_ns() - item_start;
    busy.add(ran);
    busy_total.add(ran);
    seek_start = item_start + ran;

    lock.lock();
    --job->in_flight_;
    if (error) {
      // First error wins and parks the job's claims (claimable() is
      // false once error_ is set); wait() rethrows it.
      if (!job->error_) job->error_ = error;
    } else {
      ++job->done_;
      ++slot.done;
    }
    state_->finish_if_drained(job);
  }
}

}  // namespace ulpdream::util
