// Guarded-run hardening: watchdogs, typed outcomes, seed-bump retry, and
// the determinism of impaired scenarios (the acceptance property for the
// impairment layer: same scenario + same seed => byte-identical results).
#include <string>

#include <gtest/gtest.h>

#include "exp/scenario_runner.hpp"
#include "exp/sweeps.hpp"

namespace bbrnash {
namespace {

Scenario small_scenario(int nc, int nb, double buffer_bdp = 3.0) {
  const NetworkParams net = make_params(20, 20, buffer_bdp);
  Scenario s = make_mix_scenario(net, nc, nb);
  s.duration = from_sec(12);
  s.warmup = from_sec(4);
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
  EXPECT_EQ(a.data_impairments.offered, b.data_impairments.offered);
  EXPECT_EQ(a.data_impairments.dropped, b.data_impairments.dropped);
  EXPECT_EQ(a.data_impairments.duplicated, b.data_impairments.duplicated);
  EXPECT_EQ(a.data_impairments.reordered, b.data_impairments.reordered);
  EXPECT_EQ(a.ack_impairments.dropped, b.ack_impairments.dropped);
}

TEST(RunOutcome, StatusNamesRoundTrip) {
  EXPECT_STREQ(to_string(RunStatus::kOk), "ok");
  EXPECT_STREQ(to_string(RunStatus::kAbortedEventBudget),
               "aborted-event-budget");
  EXPECT_STREQ(to_string(RunStatus::kAbortedWallClock), "aborted-wall-clock");
  EXPECT_STREQ(to_string(RunStatus::kInvariantViolation),
               "invariant-violation");
  EXPECT_STREQ(to_string(RunStatus::kError), "error");
}

TEST(GuardedRun, CleanRunMatchesUnguardedExactly) {
  const Scenario s = small_scenario(1, 1);
  const RunResult direct = run_scenario(s);
  const RunOutcome guarded = run_scenario_guarded(s);
  ASSERT_TRUE(guarded.ok());
  EXPECT_EQ(guarded.attempts, 1);
  EXPECT_EQ(guarded.seed_used, s.seed);
  expect_identical(direct, guarded.result);
  EXPECT_GT(guarded.diagnostics.events_executed, 0u);
  EXPECT_EQ(guarded.diagnostics.sim_time_reached, s.duration);
}

// The abort message's backlog counts lane events (packets and ACKs on the
// delay lines, the in-service packet) like wheel events. 42 is this run's
// live backlog: the same figure the event core reported when every event
// sat on the timing wheel.
TEST(GuardedRun, EventBudgetAbortBacklogCountsLaneEvents) {
  const Scenario s = small_scenario(2, 2);
  GuardConfig guard;
  guard.watchdog.max_events = 20000;
  const RunOutcome o = run_scenario_guarded(s, guard);
  ASSERT_EQ(o.status, RunStatus::kAbortedEventBudget);
  EXPECT_EQ(o.diagnostics.pending_events, 42u);
  EXPECT_NE(o.diagnostics.message.find("(42 live events pending)"),
            std::string::npos)
      << o.diagnostics.message;
}

TEST(GuardedRun, EventBudgetAbortsDeterministically) {
  const Scenario s = small_scenario(2, 2);
  GuardConfig guard;
  guard.watchdog.max_events = 20000;

  const RunOutcome a = run_scenario_guarded(s, guard);
  const RunOutcome b = run_scenario_guarded(s, guard);
  EXPECT_EQ(a.status, RunStatus::kAbortedEventBudget);
  EXPECT_FALSE(a.ok());
  EXPECT_EQ(a.diagnostics.events_executed, guard.watchdog.max_events);
  EXPECT_LT(a.diagnostics.sim_time_reached, s.duration);
  EXPECT_NE(a.diagnostics.message.find("event budget"), std::string::npos);
  // Determinism: the abort lands on the same event both times.
  EXPECT_EQ(a.diagnostics.sim_time_reached, b.diagnostics.sim_time_reached);
  EXPECT_EQ(a.diagnostics.events_executed, b.diagnostics.events_executed);
}

TEST(GuardedRun, WallClockBackstopAborts) {
  const Scenario s = small_scenario(2, 2);
  GuardConfig guard;
  guard.watchdog.max_wall_seconds = 1e-9;  // trips at the first slice check
  const RunOutcome o = run_scenario_guarded(s, guard);
  EXPECT_EQ(o.status, RunStatus::kAbortedWallClock);
  EXPECT_LT(o.diagnostics.sim_time_reached, s.duration);
  EXPECT_GT(o.diagnostics.wall_seconds, 0.0);
}

TEST(GuardedRun, InjectedFailureIsRecordedWithoutRetry) {
  Scenario s = small_scenario(1, 1);
  s.seed = 42;
  GuardConfig guard;
  guard.inject_failure_seeds = {42};
  const RunOutcome o = run_scenario_guarded(s, guard);
  EXPECT_EQ(o.status, RunStatus::kInvariantViolation);
  EXPECT_EQ(o.attempts, 1);
  EXPECT_EQ(o.seed_used, 42u);
  EXPECT_NE(o.diagnostics.message.find("injected"), std::string::npos);
}

TEST(GuardedRun, SeedBumpRetryIsByteIdentical) {
  Scenario s = small_scenario(1, 1);
  s.seed = 42;
  GuardConfig guard;
  guard.max_attempts = 2;
  guard.inject_failure_seeds = {42};  // first attempt fails, retry runs

  const RunOutcome o = run_scenario_guarded(s, guard);
  ASSERT_TRUE(o.ok());
  EXPECT_EQ(o.attempts, 2);
  EXPECT_EQ(o.seed_used, 42u + guard.seed_bump);

  // The retried attempt is exactly the scenario rerun at the bumped seed.
  Scenario bumped = s;
  bumped.seed = 42u + guard.seed_bump;
  expect_identical(run_scenario(bumped), o.result);
}

TEST(GuardedRun, ConfigErrorReportedNotThrown) {
  Scenario s;  // no flows, zero buffer
  const RunOutcome o = run_scenario_guarded(s);
  EXPECT_EQ(o.status, RunStatus::kError);
  EXPECT_FALSE(o.diagnostics.message.empty());
}

TEST(ImpairedScenario, DeterministicUnderFixedSeed) {
  Scenario s = small_scenario(2, 2);
  s.seed = 7;
  s.impairments.loss_rate = 0.01;
  s.impairments.jitter = from_ms(1);
  s.impairments.duplicate_rate = 0.002;
  s.impairments.reorder_rate = 0.005;
  s.impairments.reorder_delay = from_ms(3);
  s.impairments.gilbert.p_good_to_bad = 0.001;
  s.impairments.gilbert.p_bad_to_good = 0.2;
  s.ack_impairments.loss_rate = 0.005;
  s.capacity_schedule = make_flap_schedule(from_sec(4), from_sec(1),
                                           s.capacity, s.capacity / 4,
                                           s.duration);
  const RunResult a = run_scenario(s);
  const RunResult b = run_scenario(s);
  expect_identical(a, b);
  EXPECT_GT(a.data_impairments.dropped, 0u);
  EXPECT_GT(a.ack_impairments.dropped, 0u);
}

TEST(ImpairedScenario, PristineRunReportsNoImpairments) {
  const RunResult r = run_scenario(small_scenario(1, 1));
  EXPECT_EQ(r.data_impairments.offered, 0u);
  EXPECT_EQ(r.ack_impairments.offered, 0u);
}

TEST(ImpairedScenario, RandomLossHurtsCubicMoreThanBbr) {
  Scenario clean = small_scenario(1, 1);
  Scenario lossy = clean;
  lossy.impairments.loss_rate = 0.02;
  const RunResult rc = run_scenario(clean);
  const RunResult rl = run_scenario(lossy);
  // CUBIC backs off on every loss; 2% random loss must cost it throughput.
  EXPECT_LT(rl.avg_goodput_mbps(CcKind::kCubic),
            rc.avg_goodput_mbps(CcKind::kCubic));
  // And BBR should now hold the larger share.
  EXPECT_GT(rl.avg_goodput_mbps(CcKind::kBbr),
            rl.avg_goodput_mbps(CcKind::kCubic));
}

TEST(ImpairedScenario, PerFlowOverrideBeatsGlobalConfig) {
  Scenario s = small_scenario(2, 0);
  s.impairments.loss_rate = 0.05;
  ImpairmentConfig clean;
  s.flows[0].impairments = clean;  // flow 0 opts out of the global loss
  const RunResult r = run_scenario(s);
  // Only flow 1's stage rolls loss, so drops < offered for one flow only
  // and flow 0's packets are all offered-and-forwarded.
  EXPECT_GT(r.data_impairments.dropped, 0u);
  EXPECT_GT(r.flows[0].stats.goodput_bps, r.flows[1].stats.goodput_bps);
}

TEST(CapacitySchedule, FlapReducesDeliveredGoodput) {
  Scenario steady = small_scenario(1, 1);
  Scenario flapping = steady;
  // Down to C/10 for 1 s out of every 3 s.
  flapping.capacity_schedule = make_flap_schedule(
      from_sec(3), from_sec(1), steady.capacity, steady.capacity / 10,
      flapping.duration);
  const RunResult rs = run_scenario(steady);
  const RunResult rf = run_scenario(flapping);
  EXPECT_LT(rf.total_goodput_all_mbps(), rs.total_goodput_all_mbps() * 0.95);
  EXPECT_GT(rf.total_goodput_all_mbps(), 0.0);
}

TEST(Sweeps, InjectedFailingTrialRetriesAndCompletes) {
  const NetworkParams net = make_params(20, 20, 3);
  TrialConfig cfg;
  cfg.duration = from_sec(8);
  cfg.warmup = from_sec(2);
  cfg.trials = 2;
  cfg.seed = 5;
  // Fail trial 1's first attempt (seed 5 + 1000003).
  cfg.guard.inject_failure_seeds = {5 + 1000003ULL};
  cfg.guard.max_attempts = 2;

  const MixOutcome m = run_mix_trials(net, 1, 1, CcKind::kBbr, cfg);
  EXPECT_EQ(m.trials_completed, 2);
  EXPECT_EQ(m.trials_retried, 1);
  EXPECT_EQ(m.trials_failed, 0);
  EXPECT_TRUE(m.failures.empty());
  EXPECT_GT(m.per_flow_cubic_mbps, 0.0);
}

TEST(Sweeps, UnretriedFailureIsRecordedAndExcluded) {
  const NetworkParams net = make_params(20, 20, 3);
  TrialConfig cfg;
  cfg.duration = from_sec(8);
  cfg.warmup = from_sec(2);
  cfg.trials = 2;
  cfg.seed = 5;
  cfg.guard.inject_failure_seeds = {5 + 1000003ULL};  // max_attempts stays 1

  const MixOutcome m = run_mix_trials(net, 1, 1, CcKind::kBbr, cfg);
  EXPECT_EQ(m.trials_completed, 1);
  EXPECT_EQ(m.trials_failed, 1);
  ASSERT_EQ(m.failures.size(), 1u);
  EXPECT_NE(m.failures[0].find("invariant-violation"), std::string::npos);
  // The surviving trial still produced sane averages.
  EXPECT_GT(m.per_flow_cubic_mbps, 0.0);
}

}  // namespace
}  // namespace bbrnash
