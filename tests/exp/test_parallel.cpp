// The parallel sweep engine's contract: --jobs N is an execution detail,
// never a semantics knob. run_mix_trials and measure_payoffs must be
// byte-identical (via %.17g serialization) between jobs=1 and jobs=8 —
// including runs with impairments, capacity schedules, retried trials,
// and failed cells — and the pool itself must run every index exactly
// once, propagate the smallest-index exception, and run nested regions
// inline. A trial that ran on a pool worker must also hand its heap back
// to the OS when it ends.
#include "exp/parallel.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exp/checkpoint.hpp"
#include "exp/nash_search.hpp"
#include "exp/scenario_runner.hpp"
#include "exp/sweeps.hpp"

namespace bbrnash {
namespace {

TrialConfig quick_trials(int n, int jobs) {
  TrialConfig cfg;
  cfg.duration = from_sec(8);
  cfg.warmup = from_sec(2);
  cfg.trials = n;
  cfg.jobs = jobs;
  return cfg;
}

/// %.17g serialization of a full MixOutcome — doubles round-trip
/// bit-exactly, so string equality IS bit-identity.
std::string encode(const MixOutcome& m) { return mix_to_record(m).encode(); }

std::string encode(const EmpiricalPayoffs& p) {
  std::string out;
  char buf[40];
  for (const double v : p.cubic_mbps) {
    std::snprintf(buf, sizeof buf, "%.17g,", v);
    out += buf;
  }
  out += '|';
  for (const double v : p.other_mbps) {
    std::snprintf(buf, sizeof buf, "%.17g,", v);
    out += buf;
  }
  return out;
}

// --- Pool mechanics ------------------------------------------------------

TEST(TrialPool, RunsEveryIndexExactlyOnce) {
  TrialPool pool{8};
  EXPECT_EQ(pool.jobs(), 8);
  std::vector<int> hits(100, 0);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
  }
}

TEST(TrialPool, ReusableAcrossRegionsAndEmptyRangeIsNoop) {
  TrialPool pool{4};
  pool.parallel_for(0, [&](std::size_t) { FAIL() << "n==0 must not call"; });
  std::atomic<int> total{0};
  for (int round = 0; round < 5; ++round) {
    pool.parallel_for(17, [&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 5 * 17);
}

TEST(TrialPool, PropagatesSmallestIndexException) {
  TrialPool pool{8};
  try {
    pool.parallel_for(64, [&](std::size_t i) {
      if (i == 3 || i == 10 || i == 57) {
        throw std::runtime_error{"boom " + std::to_string(i)};
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // The serial loop would have hit index 3 first; parallel must agree.
    EXPECT_STREQ(e.what(), "boom 3");
  }
}

TEST(TrialPool, NestedParallelForRunsInlineOnTheWorker) {
  TrialPool pool{4};
  std::vector<bool> nested_inline(4, false);
  pool.parallel_for(4, [&](std::size_t i) {
    EXPECT_TRUE(TrialPool::in_parallel_region());
    const auto outer_thread = std::this_thread::get_id();
    bool all_same_thread = true;
    parallel_for(8, 16, [&](std::size_t) {
      if (std::this_thread::get_id() != outer_thread) all_same_thread = false;
    });
    nested_inline[i] = all_same_thread;
  });
  EXPECT_FALSE(TrialPool::in_parallel_region());
  for (std::size_t i = 0; i < nested_inline.size(); ++i) {
    EXPECT_TRUE(nested_inline[i]) << "outer task " << i;
  }
}

TEST(TrialPool, JobsResolution) {
  EXPECT_GE(hardware_jobs(), 1);
  EXPECT_EQ(resolve_jobs(0), hardware_jobs());
  EXPECT_EQ(resolve_jobs(-3), hardware_jobs());
  EXPECT_EQ(resolve_jobs(5), 5);
  EXPECT_EQ(TrialPool{1}.jobs(), 1);
}

TEST(TrialPool, TelemetryCountsCellsAndWorkers) {
  reset_parallel_telemetry();
  TrialPool pool{3};
  pool.parallel_for(10, [](std::size_t) {});
  std::uint64_t worker_cells = 0;
  for (const WorkerTelemetry& w : pool.worker_telemetry()) {
    worker_cells += w.cells_run;
  }
  EXPECT_EQ(worker_cells, 10u);
  const ParallelTelemetry t = parallel_telemetry();
  EXPECT_EQ(t.regions, 1u);
  EXPECT_EQ(t.cells_run, 10u);
  EXPECT_EQ(t.max_workers, 3);
  EXPECT_GE(t.wall_seconds, 0.0);
  EXPECT_FALSE(describe(t).empty());
  if (proc_status_mb("VmHWM:") > 0.0) {
    EXPECT_NE(describe(t).find(", peak rss "), std::string::npos);
  }
}

// --- Serial equivalence: run_mix_trials ----------------------------------

void expect_mix_equivalent(const NetworkParams& net, int num_cubic,
                           int num_other, TrialConfig cfg) {
  cfg.jobs = 1;
  const std::string serial =
      encode(run_mix_trials(net, num_cubic, num_other, CcKind::kBbr, cfg));
  cfg.jobs = 8;
  const std::string parallel =
      encode(run_mix_trials(net, num_cubic, num_other, CcKind::kBbr, cfg));
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelEquivalence, PlainMixTrials) {
  expect_mix_equivalent(make_params(20, 20, 3), 2, 2, quick_trials(4, 1));
}

TEST(ParallelEquivalence, MixTrialsWithImpairments) {
  TrialConfig cfg = quick_trials(3, 1);
  cfg.impairments.loss_rate = 0.02;
  cfg.impairments.jitter = from_ms(2);
  cfg.ack_impairments.loss_rate = 0.01;
  expect_mix_equivalent(make_params(20, 20, 3), 1, 2, cfg);
}

TEST(ParallelEquivalence, MixTrialsWithCapacitySchedule) {
  TrialConfig cfg = quick_trials(3, 1);
  cfg.capacity_schedule = {{from_sec(3), mbps(12)}, {from_sec(6), mbps(20)}};
  expect_mix_equivalent(make_params(20, 20, 3), 2, 1, cfg);
}

TEST(ParallelEquivalence, MixTrialsWithRetriesAndFailures) {
  TrialConfig cfg = quick_trials(4, 1);
  cfg.guard.max_attempts = 2;
  // Trial 1's first attempt fails and is retried with a bumped seed;
  // trial 2 fails both attempts and lands in the failures list.
  const std::uint64_t t1 = cfg.seed + 1 * 1000003ULL;
  const std::uint64_t t2 = cfg.seed + 2 * 1000003ULL;
  cfg.guard.inject_failure_seeds = {t1, t2, t2 + cfg.guard.seed_bump};

  cfg.jobs = 1;
  const MixOutcome serial =
      run_mix_trials(make_params(20, 20, 3), 1, 1, CcKind::kBbr, cfg);
  ASSERT_EQ(serial.trials_retried, 1);
  ASSERT_EQ(serial.trials_failed, 1);
  ASSERT_EQ(serial.failures.size(), 1u);

  cfg.jobs = 8;
  const MixOutcome parallel =
      run_mix_trials(make_params(20, 20, 3), 1, 1, CcKind::kBbr, cfg);
  EXPECT_EQ(encode(serial), encode(parallel));
}

// --- Serial equivalence: measure_payoffs ---------------------------------

TEST(ParallelEquivalence, MeasurePayoffs) {
  const NetworkParams net = make_params(20, 20, 3);
  NashSearchConfig cfg;
  cfg.trial = quick_trials(2, 1);
  const std::string serial = encode(measure_payoffs(net, 3, cfg));
  cfg.trial.jobs = 8;
  const std::string parallel = encode(measure_payoffs(net, 3, cfg));
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelEquivalence, MeasurePayoffsFailedCellsThrowTheSameError) {
  const NetworkParams net = make_params(20, 20, 3);
  NashSearchConfig cfg;
  cfg.trial = quick_trials(1, 1);
  // Every cell derives trial 0's seed the same way, so injecting it fails
  // every cell; the surfaced error must be the lowest-k cell's either way.
  cfg.trial.guard.inject_failure_seeds = {cfg.trial.seed};

  std::string serial_msg;
  try {
    (void)measure_payoffs(net, 3, cfg);
    FAIL() << "expected zero-trial cells to throw";
  } catch (const std::runtime_error& e) {
    serial_msg = e.what();
  }
  cfg.trial.jobs = 8;
  try {
    (void)measure_payoffs(net, 3, cfg);
    FAIL() << "expected zero-trial cells to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(serial_msg, e.what());
  }
}

// --- Serial equivalence: find_multi_rtt_ne -------------------------------

std::string encode(const MultiRttNe& ne) {
  std::string out;
  char buf[40];
  for (const int c : ne.profile.cubic_per_group) out += std::to_string(c) + ',';
  for (const auto* v : {&ne.group_cubic_mbps, &ne.group_other_mbps}) {
    out += '|';
    for (const double x : *v) {
      std::snprintf(buf, sizeof buf, "%.17g,", x);
      out += buf;
    }
  }
  return out + '|' + std::to_string(ne.steps_taken) + ',' +
         std::to_string(ne.converged);
}

TEST(ParallelEquivalence, MultiRttNe) {
  const std::vector<RttGroup> groups = {{from_ms(10), 2}, {from_ms(30), 2}};
  GroupProfile start;
  start.cubic_per_group = {1, 1};
  const auto buffer = static_cast<Bytes>(5.0 * mbps(20) * 0.010);
  NashSearchConfig cfg;
  cfg.trial = quick_trials(2, 1);
  const std::string serial =
      encode(find_multi_rtt_ne(mbps(20), buffer, groups, start, cfg));
  cfg.trial.jobs = 4;
  EXPECT_EQ(serial,
            encode(find_multi_rtt_ne(mbps(20), buffer, groups, start, cfg)));
}

TEST(ParallelEquivalence, CheckpointedPayoffsMatchAcrossJobsAndResume) {
  const NetworkParams net = make_params(20, 20, 3);
  NashSearchConfig cfg;
  cfg.trial = quick_trials(1, 1);
  const std::string serial = encode(measure_payoffs(net, 3, cfg));

  // Parallel run fills a checkpoint (cells land in completion order)...
  const std::string path = testing::TempDir() + "parallel_ckpt.jsonl";
  std::remove(path.c_str());
  cfg.trial.jobs = 8;
  cfg.checkpoint_path = path;
  EXPECT_EQ(serial, encode(measure_payoffs(net, 3, cfg)));
  // ...and a serial resume replays those cells to the same numbers.
  cfg.trial.jobs = 1;
  EXPECT_EQ(serial, encode(measure_payoffs(net, 3, cfg)));
  std::remove(path.c_str());
}

// --- Memory across trials ------------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#if defined(__GLIBC__)
TEST(TrialMemory, WorkerTrialReturnsItsHeapToTheOs) {
  if (kSanitized) GTEST_SKIP() << "sanitizers replace glibc's allocator";
  if (proc_status_mb("VmRSS:") < 0.0) GTEST_SKIP() << "no /proc/self/status";

  // A deep cell: 1 CUBIC + 1 BBR filling a 40 BDP queue holds megabytes
  // of sender records and queued packets at its peak (3.8 MB of live heap
  // with 32-byte records and packets; the 30 BDP cell peaks below 3 MB).
  Scenario s = make_mix_scenario(make_params(100, 80, 40), 1, 1,
                                 CcKind::kBbr);
  s.duration = from_sec(20);
  s.warmup = from_sec(4);
  s.sample_period = from_ms(250);
  std::size_t peak_heap = 0;
  s.on_sample = [&peak_heap](const Snapshot&) {
    peak_heap = std::max(peak_heap, mallinfo2().uordblks);
  };

  // Glibc gives each thread its own arena, so the trial must run on a
  // pool worker, not the caller: both tasks wait until both have started,
  // and only the one on the other thread runs the trial.
  TrialPool pool{2};
  const auto caller = std::this_thread::get_id();
  std::atomic<int> started{0};
  std::atomic<bool> ran_on_worker{false};
  const double before = proc_status_mb("VmRSS:");
  pool.parallel_for(2, [&](std::size_t) {
    ++started;
    while (started.load() < 2) std::this_thread::yield();
    if (std::this_thread::get_id() != caller) {
      (void)run_scenario(s);
      ran_on_worker = true;
    }
  });
  const double after = proc_status_mb("VmRSS:");

  ASSERT_TRUE(ran_on_worker.load());
  EXPECT_GT(peak_heap, std::size_t{3} << 20) << "the trial is not deep enough";
  EXPECT_NEAR(after, before, 1.0)
      << "the finished trial's heap stayed resident in the worker's arena";
}
#endif

}  // namespace
}  // namespace bbrnash
