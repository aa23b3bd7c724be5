#include "exp/parallel.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <deque>
#include <fstream>
#include <limits>
#include <string>
#include <utility>

namespace bbrnash {

namespace {

/// Depth of pool tasks on this thread's stack; > 0 means a parallel_for
/// from here must run inline (the outermost loop owns the parallelism).
thread_local int tl_region_depth = 0;

struct RegionGuard {
  RegionGuard() { ++tl_region_depth; }
  ~RegionGuard() { --tl_region_depth; }
};

double thread_cpu_seconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return 0.0;
}

std::mutex g_telemetry_mu;
ParallelTelemetry g_telemetry;

void fold_worker_delta(const WorkerTelemetry& delta) {
  const std::lock_guard<std::mutex> lk{g_telemetry_mu};
  g_telemetry.cells_run += delta.cells_run;
  g_telemetry.steals += delta.steals;
  g_telemetry.busy_seconds += delta.busy_seconds;
  g_telemetry.cpu_seconds += delta.cpu_seconds;
}

}  // namespace

int hardware_jobs() noexcept {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

int resolve_jobs(int jobs) noexcept {
  return jobs <= 0 ? hardware_jobs() : jobs;
}

double proc_status_mb(std::string_view key) {
  std::ifstream status{"/proc/self/status"};
  std::string field;
  while (status >> field) {
    if (field == key) {
      double kib = 0.0;
      return status >> kib ? kib / 1024.0 : -1.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return -1.0;
}

ParallelTelemetry parallel_telemetry() {
  const std::lock_guard<std::mutex> lk{g_telemetry_mu};
  return g_telemetry;
}

void reset_parallel_telemetry() {
  const std::lock_guard<std::mutex> lk{g_telemetry_mu};
  g_telemetry = ParallelTelemetry{};
}

void note_trial_outcomes(std::uint64_t retried, std::uint64_t failed) {
  if (retried == 0 && failed == 0) return;
  const std::lock_guard<std::mutex> lk{g_telemetry_mu};
  g_telemetry.trials_retried += retried;
  g_telemetry.trials_failed += failed;
}

std::string describe(const ParallelTelemetry& t) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "parallel: %llu cells over %llu regions on <=%d workers, "
                "%llu steals, %llu retried, %llu failed, "
                "busy %.2fs cpu %.2fs wall %.2fs",
                static_cast<unsigned long long>(t.cells_run),
                static_cast<unsigned long long>(t.regions), t.max_workers,
                static_cast<unsigned long long>(t.steals),
                static_cast<unsigned long long>(t.trials_retried),
                static_cast<unsigned long long>(t.trials_failed),
                t.busy_seconds, t.cpu_seconds, t.wall_seconds);
  std::string out = buf;
  if (const double peak = proc_status_mb("VmHWM:"); peak >= 0.0) {
    std::snprintf(buf, sizeof buf, ", peak rss %.1f MB", peak);
    out += buf;
  }
  return out;
}

struct TrialPool::Worker {
  std::mutex mu;                ///< guards q only
  std::deque<std::size_t> q;    ///< own run: pop front; thieves pop back
  WorkerTelemetry telemetry;    ///< written by owner inside run_tasks only
};

bool TrialPool::in_parallel_region() noexcept { return tl_region_depth > 0; }

TrialPool::TrialPool(int jobs) : jobs_(resolve_jobs(jobs)) {
  workers_.reserve(static_cast<std::size_t>(jobs_));
  for (int w = 0; w < jobs_; ++w) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(static_cast<std::size_t>(jobs_ - 1));
  for (int w = 1; w < jobs_; ++w) {
    threads_.emplace_back(&TrialPool::worker_main, this,
                          static_cast<std::size_t>(w));
  }
}

TrialPool::~TrialPool() {
  {
    const std::lock_guard<std::mutex> lk{mu_};
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void TrialPool::worker_main(std::size_t self) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk{mu_};
  while (true) {
    work_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    lk.unlock();
    run_tasks(self);
    lk.lock();
    if (--workers_active_ == 0) done_cv_.notify_all();
  }
}

bool TrialPool::pop_task(std::size_t self, std::size_t* idx, bool* stolen) {
  {
    Worker& me = *workers_[self];
    const std::lock_guard<std::mutex> lk{me.mu};
    if (!me.q.empty()) {
      *idx = me.q.front();
      me.q.pop_front();
      *stolen = false;
      return true;
    }
  }
  const auto n = workers_.size();
  for (std::size_t off = 1; off < n; ++off) {
    Worker& victim = *workers_[(self + off) % n];
    const std::lock_guard<std::mutex> lk{victim.mu};
    if (!victim.q.empty()) {
      *idx = victim.q.back();
      victim.q.pop_back();
      *stolen = true;
      return true;
    }
  }
  return false;
}

void TrialPool::note_error(std::size_t idx) {
  const std::lock_guard<std::mutex> lk{err_mu_};
  if (first_error_ == nullptr || idx < first_error_index_) {
    first_error_ = std::current_exception();
    first_error_index_ = idx;
  }
}

void TrialPool::run_tasks(std::size_t self) {
  const RegionGuard region;
  const auto wall0 = std::chrono::steady_clock::now();
  const double cpu0 = thread_cpu_seconds();
  WorkerTelemetry delta;
  while (tasks_left_.load(std::memory_order_acquire) > 0) {
    std::size_t idx = 0;
    bool stolen = false;
    if (!pop_task(self, &idx, &stolen)) break;  // tail is running elsewhere
    if (stolen) ++delta.steals;
    try {
      (*fn_)(idx);
    } catch (...) {
      note_error(idx);
    }
    ++delta.cells_run;
    tasks_left_.fetch_sub(1, std::memory_order_acq_rel);
  }
  delta.busy_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - wall0)
                           .count();
  delta.cpu_seconds = thread_cpu_seconds() - cpu0;
  WorkerTelemetry& mine = workers_[self]->telemetry;
  mine.cells_run += delta.cells_run;
  mine.steals += delta.steals;
  mine.busy_seconds += delta.busy_seconds;
  mine.cpu_seconds += delta.cpu_seconds;
  fold_worker_delta(delta);
}

void TrialPool::parallel_for(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (jobs_ == 1 || n == 1 || in_parallel_region()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const auto wall0 = std::chrono::steady_clock::now();
  {
    const std::lock_guard<std::mutex> lk{mu_};
    const auto jobs = static_cast<std::size_t>(jobs_);
    for (std::size_t w = 0; w < jobs; ++w) {
      // Contiguous runs keep each worker's indices cache-adjacent; the
      // steal path rebalances when runs finish unevenly.
      const std::size_t lo = w * n / jobs;
      const std::size_t hi = (w + 1) * n / jobs;
      const std::lock_guard<std::mutex> wlk{workers_[w]->mu};
      for (std::size_t i = lo; i < hi; ++i) workers_[w]->q.push_back(i);
    }
    fn_ = &fn;
    first_error_ = nullptr;
    first_error_index_ = 0;
    tasks_left_.store(n, std::memory_order_release);
    workers_active_ = jobs_ - 1;
    ++generation_;
  }
  work_cv_.notify_all();
  run_tasks(0);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lk{mu_};
    done_cv_.wait(lk, [&] { return workers_active_ == 0; });
    fn_ = nullptr;
    error = std::exchange(first_error_, nullptr);
  }
  {
    const std::lock_guard<std::mutex> lk{g_telemetry_mu};
    ++g_telemetry.regions;
    g_telemetry.wall_seconds += std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - wall0)
                                    .count();
    g_telemetry.max_workers = std::max(g_telemetry.max_workers, jobs_);
  }
  // Deterministic failure: the smallest-index exception is the one the
  // serial loop would have thrown first.
  if (error != nullptr) std::rethrow_exception(error);
}

std::vector<WorkerTelemetry> TrialPool::worker_telemetry() const {
  std::vector<WorkerTelemetry> out;
  out.reserve(workers_.size());
  for (const auto& w : workers_) out.push_back(w->telemetry);
  return out;
}

void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  const int resolved = resolve_jobs(jobs);
  if (resolved == 1 || n <= 1 || TrialPool::in_parallel_region()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  TrialPool pool{resolved};
  pool.parallel_for(n, fn);
}

}  // namespace bbrnash
