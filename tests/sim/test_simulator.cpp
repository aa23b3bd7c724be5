#include "sim/simulator.hpp"

#include <vector>

#include <gtest/gtest.h>

namespace bbrnash {
namespace {

TEST(Simulator, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), 0);
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<TimeNs> seen;
  sim.schedule_at(from_ms(5), [&] { seen.push_back(sim.now()); });
  sim.schedule_at(from_ms(9), [&] { seen.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(seen, (std::vector<TimeNs>{from_ms(5), from_ms(9)}));
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator sim;
  TimeNs inner = kTimeNone;
  sim.schedule_in(from_ms(10), [&] {
    sim.schedule_in(from_ms(5), [&] { inner = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner, from_ms(15));
}

TEST(Simulator, RunUntilExecutesEventsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(from_ms(10), [&] { ++fired; });
  sim.run_until(from_ms(10));
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, RunUntilLeavesFutureEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(from_ms(10), [&] { ++fired; });
  sim.schedule_at(from_ms(20), [&] { ++fired; });
  sim.run_until(from_ms(15));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), from_ms(15));
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(from_sec(3));
  EXPECT_EQ(sim.now(), from_sec(3));
}

TEST(Simulator, StopHaltsImmediately) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1, [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(2, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.stopped());
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(i, [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, CancellableTimerCanBeRearmed) {
  Simulator sim;
  int fired = 0;
  EventId timer = sim.schedule_cancellable_at(from_ms(10), [&] { fired = 1; });
  sim.schedule_at(from_ms(5), [&] {
    sim.cancel(timer);
    sim.schedule_cancellable_at(from_ms(20), [&] { fired = 2; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
}

// Watchdog pin: the event budget counts EXECUTED events and the reported
// backlog is the LIVE count — a large lazily-cancelled batch must neither
// consume budget nor show up in pending_events(). Cancellation-heavy CCAs
// (timer-churny RTO/pacing patterns) were the motivating case: counting
// the dead entries via raw_size() would trip the budget far too early.
TEST(Simulator, EventBudgetAndBacklogUseLiveCountNotRawSlots) {
  Simulator sim;
  constexpr int kBatch = 1000;
  std::vector<EventId> ids;
  ids.reserve(kBatch);
  for (int i = 0; i < kBatch; ++i) {
    ids.push_back(
        sim.schedule_cancellable_at(from_ms(1) + i, [] { FAIL(); }));
  }
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(from_ms(5) + i, [&] { ++fired; });
  }
  for (const EventId id : ids) sim.cancel(id);

  // Live backlog excludes the 1000 corpses; the raw slot count sees them.
  EXPECT_EQ(sim.pending_events(), 10u);
  EXPECT_EQ(sim.pending_events_raw(), 1010u);

  // Budget of 100 dwarfs the 10 live events but not the 1010 raw slots:
  // the run must complete without exhausting it.
  sim.set_event_budget(100);
  sim.run();
  EXPECT_EQ(fired, 10);
  EXPECT_FALSE(sim.budget_exhausted());
  EXPECT_EQ(sim.events_executed(), 10u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.pending_events_raw(), 0u);
}

// Lane events are live events: pending_events() counts them, the event
// budget spends on them, and run_until stops at a deadline between a lane
// event and a wheel event.
TEST(Simulator, LaneEventsCountAsPendingAndSpendBudget) {
  Simulator sim;
  const LaneId lane = sim.lane(from_ms(10));
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.schedule_lane(lane, [&order, i] { order.push_back(i); });
  }
  sim.schedule_at(from_ms(12), [&order] { order.push_back(9); });
  EXPECT_EQ(sim.pending_events(), 5u);
  EXPECT_EQ(sim.pending_events_raw(), 5u);

  sim.set_event_budget(2);
  sim.run_until(from_ms(11));
  EXPECT_TRUE(sim.budget_exhausted());
  EXPECT_EQ(sim.now(), from_ms(10));
  EXPECT_EQ(sim.pending_events(), 3u);

  sim.set_event_budget(0);
  sim.run_until(from_ms(11));
  EXPECT_EQ(sim.now(), from_ms(11));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 9}));
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Simulator, EventChainSimulatesPeriodicProcess) {
  Simulator sim;
  int ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    if (ticks < 10) sim.schedule_in(from_ms(1), tick);
  };
  sim.schedule_in(from_ms(1), tick);
  sim.run();
  EXPECT_EQ(ticks, 10);
  EXPECT_EQ(sim.now(), from_ms(10));
}

}  // namespace
}  // namespace bbrnash
