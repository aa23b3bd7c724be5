// Deterministic parallel execution for sweep cells and trials.
//
// Every simulation in this repo is a pure function of its Scenario (per-
// trial seeds are derived from the configuration, never from execution
// order), so a trial grid can run on any number of threads and still
// produce bit-identical numbers: each task commits its result into a
// pre-sized slot addressed by index, and the caller reduces the slots in
// index order afterwards — the exact floating-point operation sequence of
// the serial loop. See DESIGN.md "Parallel sweep engine" for the full
// argument.
//
// TrialPool is a work-stealing pool: indices are pre-partitioned into
// contiguous per-worker runs, and a worker that drains its own run steals
// from the tail of another's. The calling thread participates as worker 0.
// jobs == 1 never spawns a thread — the loop runs inline on the caller,
// which IS the reference serial semantics the equivalence tests compare
// against. A parallel_for issued from inside a pool task runs inline too
// (the outermost loop owns the parallelism), so nested users like
// run_mix_trials inside measure_payoffs cannot oversubscribe.
//
// If tasks throw, the pool still runs/settles every task, then rethrows
// the exception with the smallest index — the same exception a serial
// loop would have surfaced first.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace bbrnash {

/// max(1, std::thread::hardware_concurrency).
[[nodiscard]] int hardware_jobs() noexcept;

/// Maps the user-facing jobs knob to a worker count: <= 0 means "one per
/// hardware thread", anything else is taken literally.
[[nodiscard]] int resolve_jobs(int jobs) noexcept;

/// Counters one worker accumulates across the pool's lifetime. Read them
/// only between parallel_for calls (TrialPool::worker_telemetry).
struct WorkerTelemetry {
  std::uint64_t cells_run = 0;  ///< tasks executed by this worker
  std::uint64_t steals = 0;     ///< tasks taken from another worker's run
  double busy_seconds = 0.0;    ///< wall time spent inside parallel regions
  double cpu_seconds = 0.0;     ///< thread CPU time spent there
};

/// Process-wide aggregate over every pool and region since start (or the
/// last reset): what `--jobs` telemetry reports print.
struct ParallelTelemetry {
  std::uint64_t regions = 0;    ///< parallel_for invocations that fanned out
  std::uint64_t cells_run = 0;
  std::uint64_t steals = 0;
  std::uint64_t trials_retried = 0;  ///< from note_trial_outcomes
  std::uint64_t trials_failed = 0;
  double busy_seconds = 0.0;
  double cpu_seconds = 0.0;
  double wall_seconds = 0.0;    ///< summed over regions
  int max_workers = 0;
};

[[nodiscard]] ParallelTelemetry parallel_telemetry();
void reset_parallel_telemetry();

/// Lets run_mix_trials fold its per-cell retry/failure counts into the
/// global telemetry once per cell (off the per-trial hot path).
void note_trial_outcomes(std::uint64_t retried, std::uint64_t failed);

/// A kB field of /proc/self/status ("VmHWM:", "VmRSS:") in MB, or -1 where
/// the file or the field is absent.
[[nodiscard]] double proc_status_mb(std::string_view key);

/// Human-readable one-paragraph summary for bench/CLI footers. It ends
/// with the process's peak resident set (VmHWM) where /proc reports one.
[[nodiscard]] std::string describe(const ParallelTelemetry& t);

class TrialPool {
 public:
  /// jobs <= 0 means one worker per hardware thread; jobs == 1 is the
  /// serial reference path (no threads are ever created).
  explicit TrialPool(int jobs = 0);
  ~TrialPool();
  TrialPool(const TrialPool&) = delete;
  TrialPool& operator=(const TrialPool&) = delete;

  [[nodiscard]] int jobs() const noexcept { return jobs_; }

  /// Runs fn(i) for every i in [0, n) and returns once all completed.
  /// fn must confine its writes to state owned by index i (commit by
  /// slot); the caller reduces afterwards in index order.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Per-worker counters (index 0 = the calling thread). Only meaningful
  /// between parallel_for calls.
  [[nodiscard]] std::vector<WorkerTelemetry> worker_telemetry() const;

  /// True while the current thread is executing a pool task; such a
  /// thread's own parallel_for calls run inline.
  [[nodiscard]] static bool in_parallel_region() noexcept;

 private:
  struct Worker;

  void worker_main(std::size_t self);
  void run_tasks(std::size_t self);
  bool pop_task(std::size_t self, std::size_t* idx, bool* stolen);
  void note_error(std::size_t idx);

  int jobs_ = 1;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for a new generation
  std::condition_variable done_cv_;   // caller waits for workers_active_==0
  std::uint64_t generation_ = 0;
  int workers_active_ = 0;
  bool stop_ = false;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::atomic<std::size_t> tasks_left_{0};

  std::mutex err_mu_;
  std::exception_ptr first_error_;
  std::size_t first_error_index_ = 0;
};

/// One-shot convenience: TrialPool(jobs).parallel_for(n, fn), except that
/// the serial/nested cases skip pool construction entirely.
void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

}  // namespace bbrnash
