// Simulator: the simulation clock plus the event queue.
//
// Usage:
//   Simulator sim;
//   sim.schedule_in(from_ms(10), [&] { ... });
//   sim.run_until(from_sec(120));
//
// Per-packet hops schedule onto FIFO lanes instead of the timing wheel. A
// lane's pushes carry non-decreasing fire times. A hop whose delay is a
// constant of the hop (a propagation delay, one packet's serialization
// time) shares the fixed-delay lane for that delay:
//   const LaneId lane = sim.lane(from_ms(20));  // once, at wiring time
//   sim.schedule_lane(lane, [&] { ... });       // fires at now() + 20 ms
// A hop whose delay varies but whose fire times never go backwards (a
// flow's jittered access path) takes a lane of its own:
//   const LaneId own = sim.private_lane();      // once, at wiring time
//   sim.schedule_lane_at(own, t, [&] { ... });  // t >= the previous push
// Lane and wheel events share one (time, schedule order) total order, so
// which path an event takes changes its cost, never when it fires.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "sim/event_queue.hpp"
#include "util/units.hpp"

namespace bbrnash {

class Simulator {
 public:
  [[nodiscard]] TimeNs now() const noexcept { return now_; }

  /// Schedules `fn` at absolute simulated time `when` (>= now()).
  /// The callable is forwarded to the event pool as-is: keep hot-path
  /// lambdas trivially copyable and within kEventInlineBytes so they stay
  /// in the record's inline buffer (see event_queue.hpp).
  template <typename F>
  void schedule_at(TimeNs when, F&& fn) {
    assert(when >= now_ && "cannot schedule into the past");
    queue_.schedule(when, std::forward<F>(fn));
  }

  /// Schedules `fn` after a relative delay (>= 0).
  template <typename F>
  void schedule_in(TimeNs delay, F&& fn) {
    assert(delay >= 0);
    queue_.schedule(now_ + delay, std::forward<F>(fn));
  }

  /// The fixed-delay FIFO lane shared by every user with this `delay`
  /// (>= 0). Look it up once per delay, not per event.
  [[nodiscard]] LaneId lane(TimeNs delay) {
    assert(delay >= 0);
    return queue_.lane(delay);
  }

  /// A new lane that lane() never returns. Its pushes go through
  /// schedule_lane_at().
  [[nodiscard]] LaneId private_lane() { return queue_.private_lane(); }

  /// Schedules `fn` on the shared `lane`, to fire its delay after now().
  /// Same inline payload rules as schedule_at.
  template <typename F>
  void schedule_lane(LaneId lane, F&& fn) {
    queue_.schedule_lane(lane, now_, std::forward<F>(fn));
  }

  /// Schedules `fn` on `lane` at absolute time `when`: no earlier than
  /// now() nor than the lane's previous push. Same inline payload rules as
  /// schedule_at.
  template <typename F>
  void schedule_lane_at(LaneId lane, TimeNs when, F&& fn) {
    assert(when >= now_ && "cannot schedule into the past");
    queue_.push_lane(lane, when, std::forward<F>(fn));
  }

  /// Runs events until the queue drains or the clock would pass `deadline`.
  /// The clock is left at min(deadline, time of last event). Events at
  /// exactly `deadline` are executed. A run interrupted by stop() or an
  /// exhausted event budget leaves the clock at the last executed event.
  void run_until(TimeNs deadline) {
    while (!stopped_ && !budget_exhausted() &&
           queue_.run_one(deadline, now_)) {
      ++events_executed_;
    }
    if (!stopped_ && !budget_exhausted() && now_ < deadline) now_ = deadline;
  }

  /// Runs until the event queue is empty (or stop() / budget exhaustion).
  void run() {
    while (!stopped_ && !budget_exhausted() && queue_.run_one(kTimeInf, now_)) {
      ++events_executed_;
    }
  }

  /// Stops the run loop after the current event returns.
  void stop() noexcept { stopped_ = true; }
  [[nodiscard]] bool stopped() const noexcept { return stopped_; }

  /// Watchdog: caps the total number of executed events. The run loops
  /// return once the cap is reached — a deterministic abort for runaway
  /// simulations (unlike a wall-clock limit, the same scenario + seed
  /// always stops at the same event). 0 = unlimited.
  void set_event_budget(std::uint64_t max_events) noexcept {
    event_budget_ = max_events;
  }
  [[nodiscard]] bool budget_exhausted() const noexcept {
    return event_budget_ != 0 && events_executed_ >= event_budget_;
  }

  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return events_executed_;
  }
  /// Events still queued, lane events included.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_.size();
  }
  /// Pre-sizes the event pool (see EventQueue::reserve).
  void reserve_events(std::size_t n) { queue_.reserve(n); }

 private:
  EventQueue queue_;
  TimeNs now_ = 0;
  bool stopped_ = false;
  std::uint64_t events_executed_ = 0;
  std::uint64_t event_budget_ = 0;
};

}  // namespace bbrnash
