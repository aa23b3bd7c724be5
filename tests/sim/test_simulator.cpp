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

// Lane events are pending events: pending_events() counts them, the event
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
