// Differential ordering test: the simulator's wheel + heap + lanes against
// a reference priority queue on (when, schedule order).
//
// Each trial builds a random event tree. Every event carries a plan that is
// a pure function of (trial seed, event id): child events via schedule_at,
// schedule_in, schedule_lane (several fixed-delay lanes, some delays
// shared, some equal to wheel offsets so lane and wheel events tie) or
// schedule_lane_at on a private lane fed the access-path pattern
// max(last + gap, now + U) (U may be 0, so pushes land at the current
// instant), and occasionally stop().
// Each trial runs the real simulator in slices — run_until deadlines placed
// exactly on events, between the earliest lane event and the earliest wheel
// event, and far ahead — under random event budgets, and after every slice
// requires the fired ids, the clock, pending_events(), and the budget/stop
// state to match the reference exactly.
#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace bbrnash {
namespace {

// Lane delays: zero, sub-bucket, exactly one wheel bucket (4096 ns), a few
// ms, and past the 67 ms wheel horizon. The repeats share a lane.
constexpr TimeNs kLaneDelays[] = {0,           1,           4096,
                                  from_ms(3),  from_ms(3),  from_ms(20),
                                  from_ms(90), 4096};
constexpr std::size_t kNumLanes = std::size(kLaneDelays);
// Wheel offsets: the same values (ties with lane events) plus odd ones.
constexpr TimeNs kOffsets[] = {0,          1,          7,          4095,
                               4096,       from_us(50), from_ms(3), from_ms(20),
                               from_ms(67), from_ms(90), from_ms(250)};
// Private lanes, by the gap their pushes keep after the previous one: 1 as
// in the scenario runner's access path (strictly increasing), 0 for a lane
// whose pushes may tie with each other.
constexpr TimeNs kPrivateGaps[] = {1, 1, 0};
constexpr std::size_t kNumPrivate = std::size(kPrivateGaps);
// Access jitter bounds: U is drawn below one of these, so 1 gives U = 0.
constexpr TimeNs kJitters[] = {1, 1, 4096, from_us(50), from_ms(3),
                               from_ms(90)};
constexpr std::uint64_t kMaxEvents = 6000;

enum class OpKind { kAt, kIn, kLane, kPrivate, kStop };

/// Where an event waits: on the wheel (or far heap), a shared lane, or a
/// private lane.
enum class Path { kWheel, kShared, kPrivate };

struct Op {
  OpKind kind;
  TimeNs offset = 0;     ///< kAt / kIn; kPrivate: U
  std::size_t lane = 0;  ///< kLane: into kLaneDelays; kPrivate: kPrivateGaps
};

/// The children and side effects of event `id` (root: id == kMaxEvents).
std::vector<Op> plan_for(std::uint64_t seed, std::uint64_t id,
                         bool allow_stop) {
  Rng rng{seed * 0x9E3779B97F4A7C15ULL + id + 1};
  std::vector<Op> ops;
  const bool root = id == kMaxEvents;
  const std::uint64_t children =
      root ? 40 : (id < kMaxEvents - 200 ? rng.next_below(3) : 0);
  for (std::uint64_t c = 0; c < children; ++c) {
    Op op;
    const std::uint64_t k = rng.next_below(12);
    if (k < 4) {
      op.kind = OpKind::kLane;
      op.lane = rng.next_below(kNumLanes);
    } else if (k >= 10) {
      op.kind = OpKind::kPrivate;
      op.lane = rng.next_below(kNumPrivate);
      op.offset = static_cast<TimeNs>(rng.next_below(static_cast<std::uint64_t>(
          kJitters[rng.next_below(std::size(kJitters))])));
    } else {
      op.kind = k < 7 ? OpKind::kAt : OpKind::kIn;
      op.offset = kOffsets[rng.next_below(std::size(kOffsets))];
    }
    ops.push_back(op);
  }
  if (allow_stop && !root && rng.next_below(3000) == 0) {
    ops.push_back(Op{OpKind::kStop});
  }
  return ops;
}

/// Shared bookkeeping: ids are assigned in schedule order, which is also
/// both sides' sequence order.
struct Common {
  std::uint64_t seed = 0;
  bool allow_stop = false;
  std::uint64_t next_id = 0;
  std::vector<std::uint64_t> fired;
  std::uint64_t lane_scheduled = 0;  ///< shared and private
  std::uint64_t private_scheduled = 0;
  TimeNs last_private[kNumPrivate] = {};

  /// The fire time of a push onto private lane `i` at `now`.
  TimeNs private_when(std::size_t i, TimeNs now, TimeNs u) {
    last_private[i] = std::max(last_private[i] + kPrivateGaps[i], now + u);
    return last_private[i];
  }
};

/// The system under test.
class Real {
 public:
  Real(std::uint64_t seed, bool allow_stop) {
    c_.seed = seed;
    c_.allow_stop = allow_stop;
    for (const TimeNs d : kLaneDelays) lanes_.push_back(sim_.lane(d));
    for (std::size_t i = 0; i < kNumPrivate; ++i) {
      privates_.push_back(sim_.private_lane());
    }
    apply(plan_for(seed, kMaxEvents, allow_stop));
  }

  Simulator& sim() { return sim_; }
  const Common& common() const { return c_; }

 private:
  void fire(std::uint64_t id) {
    c_.fired.push_back(id);
    apply(plan_for(c_.seed, id, c_.allow_stop));
  }

  void apply(const std::vector<Op>& ops) {
    for (const Op& op : ops) {
      const std::uint64_t id = c_.next_id;
      auto fn = [this, id] { fire(id); };
      switch (op.kind) {
        case OpKind::kAt:
          ++c_.next_id;
          sim_.schedule_at(sim_.now() + op.offset, fn);
          break;
        case OpKind::kIn:
          ++c_.next_id;
          sim_.schedule_in(op.offset, fn);
          break;
        case OpKind::kLane:
          ++c_.next_id;
          ++c_.lane_scheduled;
          sim_.schedule_lane(lanes_[op.lane], fn);
          break;
        case OpKind::kPrivate:
          ++c_.next_id;
          ++c_.lane_scheduled;
          ++c_.private_scheduled;
          sim_.schedule_lane_at(privates_[op.lane],
                                c_.private_when(op.lane, sim_.now(), op.offset),
                                fn);
          break;
        case OpKind::kStop:
          sim_.stop();
          break;
      }
    }
  }

  Simulator sim_;
  Common c_;
  std::vector<LaneId> lanes_;
  std::vector<LaneId> privates_;
};

/// The reference: one ordered set on (when, schedule order), with the
/// Simulator's run_until / stop / budget contract written out directly.
class Reference {
 public:
  Reference(std::uint64_t seed, bool allow_stop) {
    c_.seed = seed;
    c_.allow_stop = allow_stop;
    apply(plan_for(seed, kMaxEvents, allow_stop));
  }

  void set_event_budget(std::uint64_t b) { budget_ = b; }
  bool budget_exhausted() const {
    return budget_ != 0 && executed_ >= budget_;
  }

  void run_until(TimeNs deadline) {
    while (!stopped_ && !budget_exhausted()) {
      const auto it = queue_.begin();
      if (it == queue_.end() || std::get<0>(*it) > deadline) break;
      const auto [when, id, path] = *it;
      queue_.erase(it);
      if (executed_ != 0 && when == now_ && path != last_path_) {
        if ((path == Path::kWheel) != (last_path_ == Path::kWheel)) {
          ++mixed_ties_;
        }
        if (path == Path::kPrivate || last_path_ == Path::kPrivate) {
          ++private_ties_;
        }
      }
      last_path_ = path;
      now_ = when;
      ++executed_;
      c_.fired.push_back(id);
      apply(plan_for(c_.seed, id, c_.allow_stop));
    }
    if (!stopped_ && !budget_exhausted() && now_ < deadline) now_ = deadline;
  }

  TimeNs now() const { return now_; }
  bool stopped() const { return stopped_; }
  std::uint64_t executed() const { return executed_; }
  std::size_t pending() const { return queue_.size(); }
  const Common& common() const { return c_; }
  /// Consecutive fires at one instant where one is a lane event (shared or
  /// private) and the other a wheel event.
  std::uint64_t mixed_ties() const { return mixed_ties_; }
  /// Consecutive fires at one instant where one is a private-lane event and
  /// the other is not.
  std::uint64_t private_ties() const { return private_ties_; }

  /// Earliest pending lane event (shared or private) or wheel event.
  TimeNs next_time(bool lane) const {
    for (const auto& e : queue_) {
      if ((std::get<2>(e) != Path::kWheel) == lane) return std::get<0>(e);
    }
    return kTimeInf;
  }

 private:
  void apply(const std::vector<Op>& ops) {
    for (const Op& op : ops) {
      const std::uint64_t id = c_.next_id;
      switch (op.kind) {
        case OpKind::kAt:
        case OpKind::kIn:
          ++c_.next_id;
          queue_.emplace(now_ + op.offset, id, Path::kWheel);
          break;
        case OpKind::kLane:
          ++c_.next_id;
          ++c_.lane_scheduled;
          queue_.emplace(now_ + kLaneDelays[op.lane], id, Path::kShared);
          break;
        case OpKind::kPrivate:
          ++c_.next_id;
          ++c_.lane_scheduled;
          ++c_.private_scheduled;
          queue_.emplace(c_.private_when(op.lane, now_, op.offset), id,
                         Path::kPrivate);
          break;
        case OpKind::kStop:
          stopped_ = true;
          break;
      }
    }
  }

  Common c_;
  // (when, id = schedule order, path)
  std::set<std::tuple<TimeNs, std::uint64_t, Path>> queue_;
  TimeNs now_ = 0;
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
  std::uint64_t budget_ = 0;
  Path last_path_ = Path::kWheel;
  std::uint64_t mixed_ties_ = 0;
  std::uint64_t private_ties_ = 0;
};

void expect_same(Real& real, const Reference& ref, const char* step) {
  SCOPED_TRACE(step);
  Simulator& sim = real.sim();
  ASSERT_EQ(real.common().fired, ref.common().fired);
  EXPECT_EQ(sim.now(), ref.now());
  EXPECT_EQ(sim.events_executed(), ref.executed());
  EXPECT_EQ(sim.pending_events(), ref.pending());
  EXPECT_EQ(sim.stopped(), ref.stopped());
  EXPECT_EQ(sim.budget_exhausted(), ref.budget_exhausted());
}

/// Runs one trial; returns whether it ended in stop().
bool run_trial(std::uint64_t seed, bool allow_stop) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  Real real{seed, allow_stop};
  Reference ref{seed, allow_stop};
  Simulator& sim = real.sim();
  Rng steps{seed ^ 0xD1FFu};
  expect_same(real, ref, "initial");
  while (ref.pending() != 0 && !ref.stopped()) {
    const TimeNs lane_t = ref.next_time(true);
    const TimeNs wheel_t = ref.next_time(false);
    const TimeNs first = std::min(lane_t, wheel_t);
    TimeNs deadline;
    const char* step;
    switch (steps.next_below(4)) {
      case 0:
        deadline = first;
        step = "deadline on the next event";
        break;
      case 1:
        if (lane_t != kTimeInf && wheel_t != kTimeInf && lane_t != wheel_t) {
          deadline = first + (std::max(lane_t, wheel_t) - first) / 2;
          step = "deadline between lane head and wheel head";
        } else {
          deadline = first;
          step = "deadline on the next event";
        }
        break;
      case 2:
        deadline = ref.now() + static_cast<TimeNs>(steps.next_below(
                                   static_cast<std::uint64_t>(from_ms(40))));
        step = "random deadline";
        break;
      default:
        deadline = ref.now() + from_sec(1);
        step = "far deadline";
        break;
    }
    const std::uint64_t budget =
        steps.next_below(3) == 0 ? ref.executed() + steps.next_below(50) + 1
                                  : 0;
    sim.set_event_budget(budget);
    ref.set_event_budget(budget);
    sim.run_until(deadline);
    ref.run_until(deadline);
    expect_same(real, ref, step);
    if (::testing::Test::HasFatalFailure()) return false;
  }
  sim.set_event_budget(0);
  ref.set_event_budget(0);
  sim.run_until(ref.now() + from_sec(10));
  ref.run_until(ref.now() + from_sec(10));
  expect_same(real, ref, "drain");
  return ref.stopped();
}

TEST(LaneOrdering, MatchesReferenceQueueAcrossRandomMixes) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    run_trial(seed, /*allow_stop=*/false);
    if (HasFatalFailure()) return;
  }
}

TEST(LaneOrdering, StopMidRunMatchesReference) {
  int stopped = 0;
  for (std::uint64_t seed = 100; seed <= 105; ++seed) {
    if (run_trial(seed, /*allow_stop=*/true)) ++stopped;
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(stopped, 0);
}

// The trees above must actually exercise every path: shared-lane,
// private-lane and wheel events, and ties between them.
TEST(LaneOrdering, TrialsCoverLanesAndTies) {
  Reference ref{1, false};
  ref.run_until(kTimeInf);
  const Common& c = ref.common();
  EXPECT_GT(c.fired.size(), 1000u);
  EXPECT_GT(c.lane_scheduled, 1000u);
  EXPECT_GT(c.private_scheduled, 500u);
  EXPECT_GT(ref.mixed_ties(), 10u);
  EXPECT_GT(ref.private_ties(), 10u);
  // With no stop, every scheduled event fires exactly once.
  EXPECT_EQ(c.fired.size(), c.next_id);

  Real real{1, false};
  real.sim().run();
  EXPECT_EQ(real.common().fired, c.fired);
  EXPECT_EQ(real.sim().pending_events(), 0u);
}

}  // namespace
}  // namespace bbrnash
