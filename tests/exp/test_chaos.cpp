// The chaos drills: every fault class the injector can provoke — forced
// trial exceptions, event-loop stalls, wall-clock stalls, checkpoint
// write failures, torn checkpoint records, transient NE payoff cells —
// must be survived by the recovery machinery it targets, and the
// recovered numbers must be bit-identical to a fault-free run at the same
// experiment seeds (chaos faults are environmental: they may cost wall
// time, never results). Also the flight recorder's failure-path contract:
// one parseable JSONL dump per trigger class.
#include "exp/chaos.hpp"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/checkpoint.hpp"
#include "exp/nash_search.hpp"
#include "exp/scenario_runner.hpp"
#include "exp/sweeps.hpp"
#include "sim/flight_recorder.hpp"
#include "util/jsonl.hpp"

namespace bbrnash {
namespace {

Scenario small_scenario(int nc, int nb) {
  const NetworkParams net = make_params(20, 20, 3.0);
  Scenario s = make_mix_scenario(net, nc, nb);
  s.duration = from_sec(8);
  s.warmup = from_sec(2);
  return s;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.flows[i].stats.goodput_bps,
                     b.flows[i].stats.goodput_bps);
    EXPECT_DOUBLE_EQ(a.flows[i].stats.avg_rtt_ms, b.flows[i].stats.avg_rtt_ms);
    EXPECT_EQ(a.flows[i].stats.retransmits, b.flows[i].stats.retransmits);
  }
  EXPECT_DOUBLE_EQ(a.avg_queue_delay_ms, b.avg_queue_delay_ms);
  EXPECT_DOUBLE_EQ(a.link_utilization, b.link_utilization);
  EXPECT_EQ(a.total_drops, b.total_drops);
}

std::string temp_path(const char* name) {
  return std::string{::testing::TempDir()} + name;
}

// --- The injector itself -------------------------------------------------

TEST(ChaosInjector, DeterministicFireOncePerSite) {
  ChaosInjector a{7};
  ChaosInjector b{7};
  const char* sites[] = {"site-one", "site-two", "site-three"};
  for (const char* site : sites) {
    // Same seed, same site => same decision (rate 1.0 fires everything).
    EXPECT_EQ(a.should_fire(ChaosClass::kTrialException, site),
              b.should_fire(ChaosClass::kTrialException, site));
    // Fire-once: the second ask at the same (class, site) never fires.
    EXPECT_FALSE(a.should_fire(ChaosClass::kTrialException, site));
  }
  // The same site under a different class is a distinct fault.
  EXPECT_TRUE(a.should_fire(ChaosClass::kEventStall, "site-one"));
  EXPECT_EQ(a.fired(ChaosClass::kTrialException), 3u);
  EXPECT_EQ(a.fired(ChaosClass::kEventStall), 1u);
  EXPECT_EQ(a.total_fired(), 4u);
  EXPECT_NE(a.describe().find("seed=7"), std::string::npos);
}

TEST(ChaosInjector, RateZeroNeverFiresAndBadRateThrows) {
  ChaosInjector off{1, 0.0};
  EXPECT_FALSE(off.should_fire(ChaosClass::kTrialException, "any"));
  EXPECT_EQ(off.total_fired(), 0u);
  EXPECT_THROW(ChaosInjector(1, -0.1), std::invalid_argument);
  EXPECT_THROW(ChaosInjector(1, 1.5), std::invalid_argument);
}

TEST(ChaosInjector, MaybeThrowCarriesClassAndSite) {
  ChaosInjector chaos{3};
  try {
    chaos.maybe_throw(ChaosClass::kNeCell, "ne-cell nc=1 no=1");
    FAIL() << "expected ChaosFault";
  } catch (const ChaosFault& e) {
    EXPECT_EQ(e.cls(), ChaosClass::kNeCell);
    EXPECT_NE(std::string{e.what()}.find("ne-cell nc=1 no=1"),
              std::string::npos);
  }
}

// --- Fault class 1: forced trial exception -------------------------------

TEST(ChaosRecovery, TrialExceptionRecoversBitIdentical) {
  const Scenario s = small_scenario(1, 1);
  const RunOutcome clean = run_scenario_guarded(s);
  ASSERT_TRUE(clean.ok());

  GuardConfig guard;  // no watchdogs: only the exception class is eligible
  guard.chaos = std::make_shared<ChaosInjector>(11);
  const RunOutcome chaotic = run_scenario_guarded(s, guard);
  ASSERT_TRUE(chaotic.ok()) << chaotic.diagnostics.message;
  EXPECT_EQ(guard.chaos->fired(ChaosClass::kTrialException), 1u);
  // Environmental fault: the redo must not consume a retry attempt.
  EXPECT_EQ(chaotic.attempts, clean.attempts);
  EXPECT_EQ(chaotic.seed_used, clean.seed_used);
  expect_identical(clean.result, chaotic.result);
}

// --- Fault class 2: event-loop stall (must trip the event watchdog) ------

TEST(ChaosRecovery, EventStallTripsWatchdogAndRecoversBitIdentical) {
  const Scenario s = small_scenario(1, 1);
  const RunOutcome probe = run_scenario_guarded(s);
  ASSERT_TRUE(probe.ok());

  GuardConfig guard;
  // Generous budget: far above the fault-free event count, so only the
  // injected spinner can exhaust it.
  guard.watchdog.max_events = probe.diagnostics.events_executed * 2 + 100000;
  const RunOutcome clean = run_scenario_guarded(s, guard);
  ASSERT_TRUE(clean.ok());

  GuardConfig chaos_guard = guard;
  chaos_guard.chaos = std::make_shared<ChaosInjector>(13);
  const RunOutcome chaotic = run_scenario_guarded(s, chaos_guard);
  ASSERT_TRUE(chaotic.ok()) << chaotic.diagnostics.message;
  // Attempt 1 throws the trial exception, attempt 2 stalls the event loop
  // until the budget watchdog fires, attempt 3 runs clean.
  EXPECT_EQ(chaos_guard.chaos->fired(ChaosClass::kTrialException), 1u);
  EXPECT_EQ(chaos_guard.chaos->fired(ChaosClass::kEventStall), 1u);
  EXPECT_EQ(chaotic.attempts, clean.attempts);
  expect_identical(clean.result, chaotic.result);
}

// --- Fault class 3: wall-clock stall (must trip the wall watchdog) -------

TEST(ChaosRecovery, WallStallTripsWatchdogAndRecoversBitIdentical) {
  Scenario s = small_scenario(1, 1);
  s.duration = from_sec(4);
  s.warmup = from_sec(1);
  GuardConfig guard;
  // Generous enough for the clean run even under sanitizers; the injected
  // stall sleeps past it regardless.
  guard.watchdog.max_wall_seconds = 3.0;
  const RunOutcome clean = run_scenario_guarded(s, guard);
  ASSERT_TRUE(clean.ok()) << "scenario must fit the wall budget: "
                          << clean.diagnostics.message;

  GuardConfig chaos_guard = guard;
  chaos_guard.chaos = std::make_shared<ChaosInjector>(17);
  const RunOutcome chaotic = run_scenario_guarded(s, chaos_guard);
  ASSERT_TRUE(chaotic.ok()) << chaotic.diagnostics.message;
  EXPECT_EQ(chaos_guard.chaos->fired(ChaosClass::kWallStall), 1u);
  EXPECT_EQ(chaotic.attempts, clean.attempts);
  expect_identical(clean.result, chaotic.result);
}

// --- Fault classes 4+5: checkpoint write failure and torn record ---------

TEST(ChaosRecovery, CheckpointDamageRecoversOnResume) {
  const std::string path = temp_path("chaos_ckpt.jsonl");
  std::remove(path.c_str());
  JsonlRecord value;
  value.set("key", std::string{"unset"});
  value.set("v", 1.25);

  ChaosInjector chaos{19};
  {
    CheckpointLog log{path, &chaos};
    for (int k = 0; k < 4; ++k) {
      JsonlRecord rec = value;
      const std::string key = "cell-" + std::to_string(k);
      rec.set("key", key);
      rec.set("v", 1.25 * (k + 1));
      log.record(key, rec);
      // The damage hits only the file: the in-memory view (this run's
      // numbers) must be unaffected.
      ASSERT_TRUE(log.lookup(key).has_value());
      EXPECT_DOUBLE_EQ(log.lookup(key)->get_double("v"), 1.25 * (k + 1));
    }
    log.flush();
  }
  EXPECT_EQ(chaos.fired(ChaosClass::kCheckpointWriteFail), 1u);
  EXPECT_EQ(chaos.fired(ChaosClass::kCheckpointTorn), 1u);

  // Resume: the dropped append and the torn record are simply missing /
  // skipped; re-running those cells restores the identical final state.
  CheckpointLog resumed{path};
  EXPECT_EQ(resumed.skipped_lines(), 1u);  // the torn half-line
  int missing = 0;
  for (int k = 0; k < 4; ++k) {
    const std::string key = "cell-" + std::to_string(k);
    const auto hit = resumed.lookup(key);
    if (!hit) {
      ++missing;
      JsonlRecord rec = value;
      rec.set("key", key);
      rec.set("v", 1.25 * (k + 1));  // the re-run reproduces the number
      resumed.record(key, rec);
    }
  }
  EXPECT_EQ(missing, 2);  // one dropped + one torn
  resumed.flush();
  for (int k = 0; k < 4; ++k) {
    const std::string key = "cell-" + std::to_string(k);
    ASSERT_TRUE(resumed.lookup(key).has_value()) << key;
    EXPECT_DOUBLE_EQ(resumed.lookup(key)->get_double("v"), 1.25 * (k + 1));
  }
}

// --- Fault class 6: transient NE payoff cell -----------------------------

TEST(ChaosRecovery, NeCellFailureRecoversBitIdentical) {
  const NetworkParams net = make_params(20, 20, 3.0);
  NashSearchConfig cfg;
  cfg.trial.trials = 1;
  cfg.trial.duration = from_sec(6);
  cfg.trial.warmup = from_sec(2);
  cfg.trial.seed = 5;
  const int total = 3;

  const EmpiricalPayoffs clean = measure_payoffs(net, total, cfg);
  const int clean_ne = find_ne_crossing(net, total, cfg);

  NashSearchConfig chaos_cfg = cfg;
  chaos_cfg.trial.guard.chaos = std::make_shared<ChaosInjector>(23);
  const EmpiricalPayoffs chaotic = measure_payoffs(net, total, chaos_cfg);
  EXPECT_GE(chaos_cfg.trial.guard.chaos->fired(ChaosClass::kNeCell), 1u);
  ASSERT_EQ(clean.cubic_mbps.size(), chaotic.cubic_mbps.size());
  for (std::size_t k = 0; k < clean.cubic_mbps.size(); ++k) {
    EXPECT_DOUBLE_EQ(clean.cubic_mbps[k], chaotic.cubic_mbps[k]) << k;
    EXPECT_DOUBLE_EQ(clean.other_mbps[k], chaotic.other_mbps[k]) << k;
  }

  NashSearchConfig chaos_cfg2 = cfg;
  chaos_cfg2.trial.guard.chaos = std::make_shared<ChaosInjector>(29);
  EXPECT_EQ(find_ne_crossing(net, total, chaos_cfg2), clean_ne);
}

// --- Trial exceptions inside a multi-RTT (Fig. 10) search ---------------

TEST(ChaosRecovery, MultiRttSearchRecoversBitIdentical) {
  const std::vector<RttGroup> groups = {{from_ms(10), 2}, {from_ms(30), 2}};
  GroupProfile start;
  start.cubic_per_group = {1, 1};
  NashSearchConfig cfg;
  cfg.trial.trials = 1;
  cfg.trial.duration = from_sec(6);
  cfg.trial.warmup = from_sec(2);
  const auto buffer = static_cast<Bytes>(5.0 * mbps(20) * 0.010);
  const MultiRttNe clean =
      find_multi_rtt_ne(mbps(20), buffer, groups, start, cfg);

  NashSearchConfig chaos_cfg = cfg;
  chaos_cfg.trial.guard.chaos = std::make_shared<ChaosInjector>(7);
  const MultiRttNe chaotic =
      find_multi_rtt_ne(mbps(20), buffer, groups, start, chaos_cfg);
  EXPECT_GE(chaos_cfg.trial.guard.chaos->total_fired(), 1u);
  EXPECT_EQ(chaotic.profile.cubic_per_group, clean.profile.cubic_per_group);
  EXPECT_EQ(chaotic.steps_taken, clean.steps_taken);
  EXPECT_EQ(chaotic.converged, clean.converged);
  ASSERT_EQ(chaotic.group_cubic_mbps.size(), clean.group_cubic_mbps.size());
  for (std::size_t g = 0; g < clean.group_cubic_mbps.size(); ++g) {
    EXPECT_DOUBLE_EQ(chaotic.group_cubic_mbps[g], clean.group_cubic_mbps[g]);
    EXPECT_DOUBLE_EQ(chaotic.group_other_mbps[g], clean.group_other_mbps[g]);
  }
}

// --- Flight recorder: one dump per failure trigger -----------------------

TEST(FlightRecorderDump, InvariantTripDumpsTheRing) {
  const std::string path = temp_path("dump_invariant.jsonl");
  std::remove(path.c_str());
  Scenario s = small_scenario(1, 1);
  s.audit.enabled = true;
  s.audit.fail_at = s.warmup;  // audit self-test trips mid-run
  s.audit.recorder_events = 128;
  s.audit.recorder_path = path;
  const RunOutcome o = run_scenario_guarded(s);
  EXPECT_EQ(o.status, RunStatus::kInvariantViolation);
  EXPECT_NE(o.diagnostics.message.find("self-test"), std::string::npos);

  const std::vector<JsonlRecord> lines = read_jsonl(path);
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines[0].get_string("type"), "meta");
  EXPECT_EQ(lines[0].get_string("trigger"), "invariant-violation");
  EXPECT_NE(lines[0].get_string("reason").find("self-test"),
            std::string::npos);
  EXPECT_EQ(lines[0].get_u64("seed"), s.seed);
  // The ring captured real traffic, and the violation marker is the
  // newest event.
  EXPECT_EQ(lines.back().get_string("kind"), "violation");
}

TEST(FlightRecorderDump, WatchdogFireDumpsTheRing) {
  const std::string path = temp_path("dump_watchdog.jsonl");
  std::remove(path.c_str());
  Scenario s = small_scenario(1, 1);
  s.audit.recorder_events = 64;  // recorder without the ledger
  s.audit.recorder_path = path;
  GuardConfig guard;
  guard.watchdog.max_events = 20000;
  const RunOutcome o = run_scenario_guarded(s, guard);
  EXPECT_EQ(o.status, RunStatus::kAbortedEventBudget);

  const std::vector<JsonlRecord> lines = read_jsonl(path);
  ASSERT_GE(lines.size(), 2u);
  EXPECT_EQ(lines[0].get_string("trigger"), "aborted-event-budget");
  EXPECT_EQ(lines[0].get_u64("ring_capacity"), 64u);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].get_string("type"), "event");
  }
}

TEST(FlightRecorderDump, UncaughtExceptionDumpsTheRing) {
  const std::string path = temp_path("dump_exception.jsonl");
  std::remove(path.c_str());
  Scenario s = small_scenario(1, 1);
  s.audit.recorder_events = 64;
  s.audit.recorder_path = path;
  GuardConfig guard;
  guard.chaos = std::make_shared<ChaosInjector>(31);  // forces one throw
  const RunOutcome o = run_scenario_guarded(s, guard);
  ASSERT_TRUE(o.ok());  // the run recovered...

  // ...but the failed attempt left its post-mortem behind (the clean redo
  // does not dump, so the exception dump survives).
  const std::vector<JsonlRecord> lines = read_jsonl(path);
  ASSERT_GE(lines.size(), 1u);
  EXPECT_EQ(lines[0].get_string("trigger"), "exception");
  EXPECT_NE(lines[0].get_string("reason").find("chaos fault"),
            std::string::npos);
}

}  // namespace
}  // namespace bbrnash
