// Zero-allocation assertion for the simulator hot path.
//
// This binary links `bbrnash_alloccount`, which replaces the global
// allocation functions with counting versions (src/util/alloc_counter.*).
// Each case builds the production dumbbell (exp/dumbbell.hpp) from a
// Scenario, pre-sizes its pools with Dumbbell::reserve(), runs past
// warmup, and then requires that the steady-state window performs *zero*
// operator new / delete calls. Every packet takes the access path's
// private lane, so its segments must reach their high-water mark like
// every other pool. Steady-state allocation counts depend only on the
// simulated workload (never on wall-clock timing), so the exact-zero
// assertion is deterministic and CI-safe, and it holds in sanitizer builds
// too: the sanitize/tsan presets run this test, so a pooling regression
// fails loudly everywhere.

#include <gtest/gtest.h>

#include "exp/dumbbell.hpp"
#include "util/alloc_counter.hpp"
#include "util/units.hpp"

namespace bbrnash {
namespace {

struct SteadyAllocs {
  std::uint64_t news = 0;
  std::uint64_t deletes = 0;
  std::uint64_t events = 0;
};

/// `cubic` + `bbr` flows at 40 ms over `capacity` with a one-BDP buffer,
/// warming up for 2 s and running to `duration`.
Scenario make_case(int cubic, int bbr, double capacity_mbps,
                   TimeNs duration) {
  Scenario s = make_mix_scenario(make_params(capacity_mbps, 40, 1.0), cubic,
                                 bbr);
  s.warmup = from_sec(2);
  s.duration = duration;
  return s;
}

/// Runs `scenario` on a reserved Dumbbell and returns the allocation
/// counts observed between its warmup and its duration.
SteadyAllocs run_steady(const Scenario& scenario) {
  scenario.validate();
  Simulator sim;
  Dumbbell db{sim, scenario};
  db.reserve();
  sim.run_until(scenario.warmup);
  const std::uint64_t warm_events = sim.events_executed();
  const std::uint64_t warm_news = allocs::news();
  const std::uint64_t warm_deletes = allocs::deletes();
  sim.run_until(scenario.duration);

  SteadyAllocs out;
  out.news = allocs::news() - warm_news;
  out.deletes = allocs::deletes() - warm_deletes;
  out.events = sim.events_executed() - warm_events;
  return out;
}

// The paper's Fig. 3 shape: one BBR vs one CUBIC flow. After warmup the
// entire event loop — wheel, lanes, slot pool, packet rings, CC state,
// pacing — must run without touching the allocator.
TEST(ZeroAlloc, TwoFlowSteadyStateAllocatesNothing) {
  const SteadyAllocs a = run_steady(make_case(1, 1, 50, from_sec(5)));
  EXPECT_GT(a.events, 10000u) << "scenario too small to be meaningful";
  EXPECT_EQ(a.news, 0u) << "steady-state hot path allocated";
  EXPECT_EQ(a.deletes, 0u) << "steady-state hot path freed";
}

// Many flows: per-flow pools and the shared event heap all at their
// high-water marks simultaneously.
TEST(ZeroAlloc, TenFlowSteadyStateAllocatesNothing) {
  const SteadyAllocs a = run_steady(make_case(5, 5, 100, from_sec(4)));
  EXPECT_GT(a.events, 10000u);
  EXPECT_EQ(a.news, 0u) << "steady-state hot path allocated";
  EXPECT_EQ(a.deletes, 0u) << "steady-state hot path freed";
}

// Loss + jitter + reordering drives the retransmit and out-of-order
// reassembly paths, which historically hid per-packet allocations. Every
// packet goes from its access lane through the impairment stage; with two
// flows of each kind the lanes need their pre-sizing to stay at zero.
TEST(ZeroAlloc, ImpairedSteadyStateAllocatesNothing) {
  for (const int per_kind : {1, 2}) {
    SCOPED_TRACE(per_kind);
    Scenario s = make_case(per_kind, per_kind, 50, from_sec(5));
    s.impairments.loss_rate = 0.005;
    s.impairments.jitter = from_ms(2);
    s.impairments.reorder_rate = 0.001;
    s.impairments.reorder_delay = from_ms(5);
    const SteadyAllocs a = run_steady(s);
    EXPECT_GT(a.events, 10000u);
    EXPECT_EQ(a.news, 0u) << "steady-state hot path allocated";
    EXPECT_EQ(a.deletes, 0u) << "steady-state hot path freed";
  }
}

// The impaired_8flow shape: Gilbert-Elliott burst loss, jitter and
// reordering on the data path, plus ACK loss, which sends every ACK
// through the ACK impairment stage before the reverse path.
TEST(ZeroAlloc, ImpairedAckPathSteadyStateAllocatesNothing) {
  Scenario s = make_case(4, 4, 100, from_sec(5));
  s.impairments.gilbert.p_good_to_bad = 0.001;
  s.impairments.gilbert.p_bad_to_good = 0.2;
  s.impairments.gilbert.loss_bad = 0.3;
  s.impairments.jitter = from_ms(2);
  s.impairments.reorder_rate = 0.001;
  s.impairments.reorder_delay = from_ms(5);
  s.ack_impairments.loss_rate = 0.005;
  const SteadyAllocs a = run_steady(s);
  EXPECT_GT(a.events, 10000u);
  EXPECT_EQ(a.news, 0u) << "steady-state hot path allocated";
  EXPECT_EQ(a.deletes, 0u) << "steady-state hot path freed";
}

}  // namespace
}  // namespace bbrnash
